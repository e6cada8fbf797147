package main

import (
	"encoding/json"
	"errors"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/service"
)

// twoCliques is K8 ∪ K8 (weight 5) joined by 2 bridges of weight 1:
// connected, λ = 2, and the minimum cut separates the cliques.
func twoCliques(t *testing.T) *variant {
	t.Helper()
	v := newVariant(gen.TwoCliques(8, 2, 5, 1))
	if v.comps != 1 || v.lambda != 2 {
		t.Fatalf("oracle: comps %d λ %d, want 1 and 2", v.comps, v.lambda)
	}
	return v
}

func cliqueSide() []int32 { return []int32{0, 1, 2, 3, 4, 5, 6, 7} }

func u64(x uint64) *uint64 { return &x }
func intp(x int) *int      { return &x }

func mustReject(t *testing.T, what string, r *service.QueryResponse, v *variant) {
	t.Helper()
	_, err := checkAnswer(r, v)
	var inc *errIncorrect
	if !errors.As(err, &inc) {
		t.Errorf("%s: checker accepted it (err %v)", what, err)
	}
}

func TestCheckerAcceptsCorrectAnswers(t *testing.T) {
	v := twoCliques(t)
	for _, r := range []*service.QueryResponse{
		{Algorithm: service.AlgCC, Components: intp(1)},
		{Algorithm: service.AlgMinCut, Value: u64(2), Side: cliqueSide()},
		{Algorithm: service.AlgApproxCut, Value: u64(2)},
	} {
		if miss, err := checkAnswer(r, v); err != nil || miss {
			t.Errorf("%s: miss %v err %v", r.Algorithm, miss, err)
		}
	}
}

func TestCheckerRejectsCorruptedAnswers(t *testing.T) {
	v := twoCliques(t)
	mustReject(t, "corrupted cc count", &service.QueryResponse{Algorithm: service.AlgCC, Components: intp(2)}, v)

	flipped := append(cliqueSide(), 8) // vertex 8 moved across the cut
	mustReject(t, "flipped mincut side", &service.QueryResponse{Algorithm: service.AlgMinCut, Value: u64(2), Side: flipped}, v)
	mustReject(t, "side cutting a different value", &service.QueryResponse{Algorithm: service.AlgMinCut, Value: u64(3), Side: cliqueSide()}, v)
	mustReject(t, "empty side on a connected graph", &service.QueryResponse{Algorithm: service.AlgMinCut, Value: u64(0)}, v)
	mustReject(t, "side out of range", &service.QueryResponse{Algorithm: service.AlgMinCut, Value: u64(2), Side: []int32{99}}, v)

	// A value below λ whose side is consistent can only come from a
	// wrong oracle or a wrong graph; raise the oracle to exercise it.
	high := *v
	high.lambda = 3
	mustReject(t, "below-λ value", &service.QueryResponse{Algorithm: service.AlgMinCut, Value: u64(2), Side: cliqueSide()}, &high)

	mustReject(t, "approxcut not a power of two", &service.QueryResponse{Algorithm: service.AlgApproxCut, Value: u64(3)}, v)
	mustReject(t, "approxcut zero on a connected graph", &service.QueryResponse{Algorithm: service.AlgApproxCut, Value: u64(0)}, v)
	mustReject(t, "approxcut far above λ", &service.QueryResponse{Algorithm: service.AlgApproxCut, Value: u64(1 << 10)}, v)

	dis := newVariant(disjointUnion(gen.Complete(4, 1), gen.Complete(4, 1)))
	mustReject(t, "approxcut non-zero on a disconnected graph", &service.QueryResponse{Algorithm: service.AlgApproxCut, Value: u64(1)}, dis)
}

func TestCheckerCountsMissAboveLambda(t *testing.T) {
	v := twoCliques(t)
	// Vertex 0 alone cuts 7 clique edges of weight 5, plus a bridge if
	// vertex 0 carries one.
	side := []int32{0}
	cut, err := sideCut(v.g, side)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := checkAnswer(&service.QueryResponse{Algorithm: service.AlgMinCut, Value: u64(cut), Side: side}, v)
	if err != nil || !miss {
		t.Fatalf("value %d > λ: miss %v err %v, want a miss", cut, miss, err)
	}
}

func TestCheckerUsesTheVersionTheReplyNames(t *testing.T) {
	w := &workload{graphs: map[string][]*variant{
		"g": {twoCliques(t), newVariant(disjointUnion(gen.Complete(4, 1), gen.Complete(4, 1)))},
	}}
	book := newVersionBook()
	book.record("g", 1, 0)
	book.record("g", 2, 1)
	reply := func(version uint64, comps int) *sample {
		return &sample{
			op:   op{kind: opQuery, req: service.QueryRequest{Graph: "g", Algorithm: service.AlgCC}},
			resp: &service.QueryResponse{Graph: "g", Version: version, Algorithm: service.AlgCC, Components: intp(comps)},
		}
	}
	if _, err := checkReply(w, book, reply(1, 1)); err != nil {
		t.Fatalf("version 1 answered for version 1: %v", err)
	}
	if _, err := checkReply(w, book, reply(2, 1)); err == nil {
		t.Error("version 1's answer under version 2 was accepted")
	}
	if _, err := checkReply(w, book, reply(3, 1)); err == nil {
		t.Error("an answer naming an unacknowledged version was accepted")
	}

	samples := []sample{*reply(2, 1)}
	samples[0].status = 200
	if _, err := evaluate(w, book, samples, 1); err == nil || !strings.Contains(err.Error(), "incorrect output") {
		t.Errorf("evaluate did not fail the run on an incorrect answer: %v", err)
	}
}

// TestStalledQueriesCountAsFailed checks the accounting of a query that
// ran to its deadline: it fails, counts as stalled, and keeps its latency.
func TestStalledQueriesCountAsFailed(t *testing.T) {
	w := &workload{deadline: fleetDeadline}
	q := op{kind: opQuery, req: service.QueryRequest{Graph: "g", Algorithm: service.AlgCC}}
	samples := []sample{
		{op: q, start: 0, end: fleetDeadline + time.Millisecond, status: 408, err: "deadline"},
		{op: q, start: 0, end: time.Millisecond, status: 503, err: "no connection"},
		{op: op{kind: opUpload, graph: "g"}, start: 0, end: time.Millisecond, status: 201},
	}
	ev, err := evaluate(w, newVersionBook(), samples, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ev.attempted != 3 || ev.failed != 2 || ev.stalled != 1 || len(ev.queryMs) != 2 || len(ev.uploadMs) != 1 {
		t.Fatalf("attempted %d failed %d stalled %d, %d query and %d upload latencies; want 3, 2, 1, 2, 1",
			ev.attempted, ev.failed, ev.stalled, len(ev.queryMs), len(ev.uploadMs))
	}
}

func TestScheduleFingerprintIsAFunctionOfTheSeed(t *testing.T) {
	for _, name := range []string{"serve", "solve", "fleet"} {
		a, err := newWorkload(name, 7, false)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newWorkload(name, 7, false)
		c, _ := newWorkload(name, 8, false)
		fa, fb, fc := a.fingerprint(), b.fingerprint(), c.fingerprint()
		if fa != fb {
			t.Errorf("%s: seed 7 gave fingerprints %s and %s", name, fa, fb)
		}
		if fa == fc {
			t.Errorf("%s: seeds 7 and 8 share fingerprint %s", name, fa)
		}
		if fa != a.fingerprint() {
			t.Errorf("%s: fingerprinting consumed the schedule", name)
		}
	}
	a, _ := newWorkload("fleet", 7, false)
	d, _ := newWorkload("fleet", 7, true)
	if a.fingerprint() == d.fingerprint() {
		t.Error("fleet with and without --known-defects share a fingerprint")
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for n := 0; n <= 3000; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // distinct, unsorted
		}
		for _, pref := range []float64{0.99, 0.90} {
			tl, err := tailLatency(xs, pref)
			if n < 2*minBeyond {
				if err == nil {
					t.Fatalf("n=%d: tail p%g reported from too few samples", n, tl.Pct*100)
				}
				continue
			}
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			above := 0
			for _, x := range xs {
				if x > tl.Value {
					above++
				}
			}
			if above < minBeyond || tl.Beyond < minBeyond || tl.Pct > pref {
				t.Fatalf("n=%d pref %g: p%g leaves %d samples beyond (reported %d)", n, pref, tl.Pct*100, above, tl.Beyond)
			}
		}
	}
}

// TestBenchmarkJSONNamesWhatTheProgramPrints keeps BENCHMARK.json and the
// metrics the program emits in step.
func TestBenchmarkJSONNamesWhatTheProgramPrints(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, emitted map[string]string) {
		var names []string
		for _, m := range listed {
			names = append(names, m.Name)
			if emitted[m.Name] != m.Unit {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, program %q", kind, m.Name, m.Unit, emitted[m.Name])
			}
		}
		sort.Strings(names)
		if got := sortedNames(emitted); strings.Join(got, ",") != strings.Join(names, ",") {
			t.Errorf("%s metrics differ:\n BENCHMARK.json %v\n program        %v", kind, names, got)
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndUnits)
	check("per_layer", spec.PerLayer, perLayerUnits)
	for _, wl := range spec.Workloads {
		if _, err := newWorkload(wl.Name, 1, false); err != nil {
			t.Error(err)
		}
	}
}
