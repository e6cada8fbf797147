package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"repro/internal/graph"
	"repro/internal/mincut"
	"repro/internal/service"
)

// variant is one uploadable content of a named graph together with the
// oracle answers every reply about it is checked against. Oracles are
// computed sequentially by the benchmark itself, before set-up starts.
type variant struct {
	g      *graph.Graph
	body   []byte // edge-list upload body
	hash   uint64 // FNV-1a of body, part of the schedule fingerprint
	comps  int    // graph.ConnectedComponents
	lambda uint64 // mincut.StoerWagner
}

func newVariant(g *graph.Graph) *variant {
	var b bytes.Buffer
	if err := graph.WriteEdgeList(&b, g); err != nil {
		panic(err) // writes to a bytes.Buffer cannot fail
	}
	h := fnv.New64a()
	h.Write(b.Bytes())
	_, comps := g.ConnectedComponents()
	return &variant{
		g:      g,
		body:   b.Bytes(),
		hash:   h.Sum64(),
		comps:  comps,
		lambda: mincut.StoerWagner(g).Value,
	}
}

// approxSlack is the constant c of the accepted approximate-cut bracket
// [λ/(c·log2 n), c·λ·log2 n]. The paper proves an O(log n) factor
// w.h.p.; observed ratios estimate/λ lie in 0.1–1.0, well inside c = 2.
const approxSlack = 2.0

// errIncorrect marks an answer that is wrong, as opposed to a Monte Carlo
// miss or a failed operation.
type errIncorrect struct{ msg string }

func (e *errIncorrect) Error() string { return e.msg }

func incorrect(format string, args ...interface{}) error {
	return &errIncorrect{msg: fmt.Sprintf(format, args...)}
}

// checkAnswer checks one 200 reply against the oracle of the variant its
// version names. It returns miss=true for a mincut above λ (a Monte
// Carlo miss, counted as a failed operation) and an *errIncorrect for a
// wrong answer, which fails the run.
func checkAnswer(r *service.QueryResponse, v *variant) (miss bool, err error) {
	switch r.Algorithm {
	case service.AlgCC:
		if r.Components == nil {
			return false, incorrect("cc reply has no component count")
		}
		if *r.Components != v.comps {
			return false, incorrect("cc count %d, oracle %d", *r.Components, v.comps)
		}
	case service.AlgMinCut:
		if r.Value == nil {
			return false, incorrect("mincut reply has no value")
		}
		cut, err := sideCut(v.g, r.Side)
		if err != nil {
			return false, err
		}
		if v.comps == 1 && (len(r.Side) == 0 || len(r.Side) >= v.g.N) {
			return false, incorrect("mincut side has %d of %d vertices: not a cut", len(r.Side), v.g.N)
		}
		if cut != *r.Value {
			return false, incorrect("mincut side cuts %d, reply says %d", cut, *r.Value)
		}
		if *r.Value < v.lambda {
			return false, incorrect("mincut %d below λ=%d", *r.Value, v.lambda)
		}
		return *r.Value > v.lambda, nil
	case service.AlgApproxCut:
		if r.Value == nil {
			return false, incorrect("approxcut reply has no value")
		}
		val := *r.Value
		if v.comps > 1 {
			if val != 0 {
				return false, incorrect("approxcut %d on a disconnected graph", val)
			}
			return false, nil
		}
		if val == 0 {
			return false, incorrect("approxcut 0 on a connected graph")
		}
		if val&(val-1) != 0 {
			return false, incorrect("approxcut %d is not a power of two", val)
		}
		f := approxSlack * math.Log2(float64(v.g.N))
		ratio := float64(val) / float64(v.lambda)
		if ratio < 1/f || ratio > f {
			return false, incorrect("approxcut %d outside [λ/%.1f, %.1f·λ] for λ=%d", val, f, f, v.lambda)
		}
	default:
		return false, incorrect("reply names unknown algorithm %q", r.Algorithm)
	}
	return false, nil
}

// sideCut is the weight of the edges leaving the vertex set side.
func sideCut(g *graph.Graph, side []int32) (uint64, error) {
	in := make([]bool, g.N)
	for _, u := range side {
		if u < 0 || int(u) >= g.N || in[u] {
			return 0, incorrect("mincut side lists vertex %d twice or out of range (n=%d)", u, g.N)
		}
		in[u] = true
	}
	return g.CutValue(in), nil
}

// versionBook maps each (graph name, registry version) the system has
// acknowledged to the variant uploaded under it. With uploads racing
// queries a name has several live versions, and a reply is checked
// against the one it names.
type versionBook struct {
	mu sync.Mutex
	m  map[string]map[uint64]int
}

func newVersionBook() *versionBook {
	return &versionBook{m: make(map[string]map[uint64]int)}
}

func (b *versionBook) record(name string, version uint64, variant int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.m[name] == nil {
		b.m[name] = make(map[uint64]int)
	}
	b.m[name][version] = variant
}

func (b *versionBook) lookup(name string, version uint64) (int, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	v, ok := b.m[name][version]
	return v, ok
}
