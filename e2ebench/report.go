package main

import (
	"fmt"
	"net/http"
	"sort"
	"strings"

	"repro/internal/service"
)

// evaluation is a phase's operations after the oracle check. Clients
// judge each reply as it arrives, so an untraced run keeps latencies and
// counts, not replies.
type evaluation struct {
	attempted int
	failed    int // non-2xx, transport error, degraded answer or Monte Carlo miss
	correct   int // correct, non-degraded query answers
	misses    int
	stalled   int // failed queries that ran to the workload's deadline
	statuses  map[int]int
	errors    map[int]string // one error body or transport error per failing status
	queryMs   []float64      // every query, failed ones included
	uploadMs  []float64
	wallS     float64
}

func newEvaluation() *evaluation {
	return &evaluation{statuses: map[int]int{}, errors: map[int]string{}}
}

// add counts one operation. A reply naming a version whose upload the
// client has not yet seen acknowledged is left pending, to be judged once
// every upload of the phase returned; an incorrect answer is returned as
// an error naming the query.
func (ev *evaluation) add(w *workload, book *versionBook, s *sample) (pending bool, err error) {
	ev.attempted++
	ev.statuses[s.status]++
	if s.err != "" && ev.errors[s.status] == "" {
		ev.errors[s.status] = s.err
	}
	if s.op.kind == opUpload {
		ev.uploadMs = append(ev.uploadMs, s.ms())
		if s.status != http.StatusCreated {
			ev.failed++
		}
		return false, nil
	}
	ev.queryMs = append(ev.queryMs, s.ms())
	if s.status != http.StatusOK {
		ev.failed++
		if w.deadline > 0 && s.end-s.start >= w.deadline {
			ev.stalled++
		}
		return false, nil
	}
	if _, ok := book.lookup(s.resp.Graph, s.resp.Version); !ok {
		return true, nil
	}
	return false, ev.judge(w, book, s)
}

func (ev *evaluation) judge(w *workload, book *versionBook, s *sample) error {
	miss, err := checkReply(w, book, s)
	if err != nil {
		return fmt.Errorf("incorrect output for query %d (%s, reply version %d): %w", s.id, s.op, s.resp.Version, err)
	}
	switch {
	case s.resp.Degraded:
		ev.failed++
	case miss:
		ev.failed++
		ev.misses++
	default:
		ev.correct++
	}
	return nil
}

func (ev *evaluation) merge(o *evaluation) {
	ev.attempted += o.attempted
	ev.failed += o.failed
	ev.correct += o.correct
	ev.misses += o.misses
	ev.stalled += o.stalled
	for k, n := range o.statuses {
		ev.statuses[k] += n
	}
	for k, e := range o.errors {
		if ev.errors[k] == "" {
			ev.errors[k] = e
		}
	}
	ev.queryMs = append(ev.queryMs, o.queryMs...)
	ev.uploadMs = append(ev.uploadMs, o.uploadMs...)
}

// evaluate judges a complete list of samples.
func evaluate(w *workload, book *versionBook, samples []sample, wallS float64) (*evaluation, error) {
	ev := newEvaluation()
	ev.wallS = wallS
	for i := range samples {
		pending, err := ev.add(w, book, &samples[i])
		if err == nil && pending {
			err = ev.judge(w, book, &samples[i])
		}
		if err != nil {
			return nil, err
		}
	}
	return ev, nil
}

// checkReply resolves the variant a reply's version names and checks the
// reply against its oracle.
func checkReply(w *workload, book *versionBook, s *sample) (miss bool, err error) {
	r := s.resp
	if r.Graph != s.op.req.Graph || r.Algorithm != s.op.req.Algorithm {
		return false, incorrect("reply is for %s on %q", r.Algorithm, r.Graph)
	}
	idx, ok := book.lookup(r.Graph, r.Version)
	if !ok {
		return false, incorrect("no acknowledged upload produced version %d of %q", r.Version, r.Graph)
	}
	return checkAnswer(r, w.graphs[r.Graph][idx])
}

// errorFrac is the failed share of attempted operations, estimated with
// the Jeffreys prior, (failed + ½)/(attempted + 1): it equals
// failed/attempted up to half an operation and is never 0, so a run
// without failures still reports how many operations vouch for that.
func (ev *evaluation) errorFrac() float64 {
	return (float64(ev.failed) + 0.5) / (float64(ev.attempted) + 1)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndUnits names every end-to-end metric with its unit.
var endToEndUnits = map[string]string{
	"throughput_qps":  "1/s",
	"latency_p50_ms":  "ms",
	"latency_tail_ms": "ms",
	"upload_p50_ms":   "ms",
	"error_frac":      "ratio",
	"setup_s":         "s",
	"peak_rss_mb":     "MB",
}

func endToEnd(ev *evaluation, tl tail, setupS, rssMB float64) map[string]metric {
	vals := map[string]float64{
		"throughput_qps":  float64(ev.correct) / ev.wallS,
		"latency_p50_ms":  median(ev.queryMs),
		"latency_tail_ms": tl.Value,
		"upload_p50_ms":   median(ev.uploadMs),
		"error_frac":      ev.errorFrac(),
		"setup_s":         setupS,
		"peak_rss_mb":     rssMB,
	}
	out := make(map[string]metric, len(vals))
	for k, v := range vals {
		out[k] = metric{Value: v, Unit: endToEndUnits[k]}
	}
	return out
}

// perLayerUnits names every per-layer metric with its unit. A metric a
// workload does not exercise reports 0.
var perLayerUnits = map[string]string{
	"service.http_ms":        "ms",
	"service.handler_ms":     "ms",
	"service.engine_ms":      "ms",
	"service.hit_ms":         "ms",
	"service.first_query_ms": "ms",
	"service.cache_hit_frac": "ratio",
	"service.coalesced_frac": "ratio",
	"service.rejected_frac":  "ratio",

	"planner.choose_us":               "us",
	"planner.pred_err":                "ratio",
	"planner.pick.cc.sampling":        "count",
	"planner.pick.cc.lowround":        "count",
	"planner.pick.cc.labelprop":       "count",
	"planner.pick.cc.shared":          "count",
	"planner.pick.mincut.kargerstein": "count",
	"planner.pick.mincut.stoerwagner": "count",
	"planner.calibrate_s":             "s",
	"planner.live_diverged":           "count",

	"graph.parse_ms": "ms",

	"mincut.kernel_ms":  "ms",
	"mincut.comm_frac":  "ratio",
	"mincut.supersteps": "count",
	"mincut.comm_words": "count",
	"mincut.max_ops":    "count",
	"mincut.trials":     "count",
	"mincut.miss":       "count",

	"cc.kernel_ms":  "ms",
	"cc.comm_frac":  "ratio",
	"cc.supersteps": "count",
	"cc.comm_words": "count",
	"cc.max_ops":    "count",

	"approxcut.kernel_ms":  "ms",
	"approxcut.comm_frac":  "ratio",
	"approxcut.supersteps": "count",
	"approxcut.comm_words": "count",
	"approxcut.max_ops":    "count",
	"approxcut.iterations": "count",

	"bsp.comm_ms":              "ms",
	"bsp.app_ms":               "ms",
	"bsp.supersteps_per_query": "count",
	"bsp.max_h_relation":       "count",
	"bsp.avoided_collectives":  "count",

	"transport.wire_bytes_per_query":  "bytes",
	"transport.raw_bytes_per_query":   "bytes",
	"transport.compression":           "ratio",
	"transport.comm_ms_per_superstep": "ms",

	"shard.frontend_ms":  "ms",
	"shard.control_ms":   "ms",
	"shard.replicate_ms": "ms",
	"shard.stalled":      "count",

	"self.client_ms":      "ms",
	"self.frontend_ms":    "ms",
	"self.handler_ms":     "ms",
	"self.engine_ms":      "ms",
	"self.kernel_app_ms":  "ms",
	"self.kernel_comm_ms": "ms",

	"trace.overhead_p50_ms":   "ms",
	"trace.overhead_qps_frac": "ratio",
}

// layerInput is everything a traced run yields for per-layer metrics.
type layerInput struct {
	samples       []sample
	ev            *evaluation // traced phase
	untraced      *evaluation
	ix            opSpans
	before, after *service.EngineStats
	calibrateS    float64
	chooseUs      float64
	liveDiverged  int
}

func perLayer(in layerInput) map[string]metric {
	v := map[string]float64{}
	for name := range perLayerUnits {
		v[name] = 0
	}
	var (
		httpMs, handlerMs, engineMs, hitMs, firstMs, predErr []float64
		feMs, controlMs, replicateMs, parseMs                []float64
		bspComm, bspApp, bspSS, bspH, bspAvoided             []float64
		self                                                 = map[string]float64{}
		selfN                                                int
		tcpWire, tcpRaw, tcpComm, tcpSS                      float64
		tcpN                                                 int
	)
	perAlg := map[string]*algAgg{}
	// fresh marks the versions uploaded during the phase; the first
	// executed query on each pays for its plan build.
	fresh := map[string]bool{}
	for i := range in.samples {
		if info := in.samples[i].info; info != nil {
			fresh[fmt.Sprintf("%s@%d", info.Name, info.Version)] = true
		}
	}
	for i := range in.samples {
		s := &in.samples[i]
		outer, traced := in.ix.outer[s.id]
		if s.op.kind == opUpload {
			if s.parseMs > 0 {
				parseMs = append(parseMs, s.parseMs)
			}
			if traced && outer.Layer == "frontend" && s.status == http.StatusCreated {
				replicateMs = append(replicateMs, outer.ms())
			}
			continue
		}
		if s.status != http.StatusOK || !traced {
			continue
		}
		r := s.resp
		k := r.Kernel
		inner := outer // the span whose handler ran the engine
		if outer.Layer == "frontend" {
			leader, ok := in.ix.leader[s.id]
			if !ok {
				continue
			}
			inner = leader
			feMs = append(feMs, outer.ms()-leader.ms())
			self["frontend"] += outer.ms() - leader.ms()
		}
		httpMs = append(httpMs, s.ms()-outer.ms())
		handlerMs = append(handlerMs, inner.ms()-r.LatencyMs)
		self["client"] += s.ms() - outer.ms()
		self["handler"] += inner.ms() - r.LatencyMs
		selfN++
		executed := r.Outcome == "executed" || r.Outcome == "degraded"
		if !executed {
			self["engine"] += r.LatencyMs
			if r.Outcome == "cache_hit" {
				hitMs = append(hitMs, s.ms())
			}
			continue
		}
		self["engine"] += r.LatencyMs - k.TimeMs
		self["kernel_app"] += k.TimeMs - k.CommTimeMs
		self["kernel_comm"] += k.CommTimeMs
		engineMs = append(engineMs, r.LatencyMs-k.TimeMs)
		if outer.Layer == "frontend" {
			controlMs = append(controlMs, r.LatencyMs-k.TimeMs)
		}
		if key := fmt.Sprintf("%s@%d", r.Graph, r.Version); fresh[key] {
			delete(fresh, key)
			firstMs = append(firstMs, r.LatencyMs)
		}
		if k.PredictedMs > 0 && k.TimeMs > 0 {
			d := k.PredictedMs - k.TimeMs
			if d < 0 {
				d = -d
			}
			predErr = append(predErr, d/k.TimeMs)
		}
		a := perAlg[r.Algorithm]
		if a == nil {
			a = &algAgg{}
			perAlg[r.Algorithm] = a
		}
		a.add(r)
		if k.Transport != "shared" {
			bspComm = append(bspComm, k.CommTimeMs)
			bspApp = append(bspApp, k.TimeMs-k.CommTimeMs)
			bspSS = append(bspSS, float64(k.Supersteps))
			bspH = append(bspH, float64(k.MaxHRelation))
			bspAvoided = append(bspAvoided, float64(k.AvoidedCollectives))
		}
		if k.Transport == "tcp" {
			tcpN++
			tcpWire += float64(k.WireBytes)
			tcpRaw += float64(k.WireRawBytes)
			tcpComm += k.CommTimeMs
			tcpSS += float64(k.Supersteps)
		}
	}

	v["service.http_ms"] = median(httpMs)
	v["service.handler_ms"] = median(handlerMs)
	v["service.engine_ms"] = median(engineMs)
	v["service.hit_ms"] = median(hitMs)
	v["service.first_query_ms"] = median(firstMs)
	if in.before != nil && in.after != nil {
		b, a := in.before.Queries.Totals, in.after.Queries.Totals
		if q := float64(a.Queries - b.Queries); q > 0 {
			v["service.cache_hit_frac"] = float64(a.CacheHits-b.CacheHits) / q
			v["service.coalesced_frac"] = float64(a.Coalesced-b.Coalesced) / q
			v["service.rejected_frac"] = float64(a.Rejected-b.Rejected) / q
		}
		if in.before.Planner != nil && in.after.Planner != nil {
			for _, kern := range []string{"sampling", "lowround", "labelprop", "shared"} {
				v["planner.pick.cc."+kern] = float64(in.after.Planner.Choices[kern] - in.before.Planner.Choices[kern])
			}
			for _, kern := range []string{"kargerstein", "stoerwagner"} {
				v["planner.pick.mincut."+kern] = float64(in.after.Planner.Choices[kern] - in.before.Planner.Choices[kern])
			}
		}
	}
	v["planner.choose_us"] = in.chooseUs
	v["planner.pred_err"] = median(predErr)
	v["planner.calibrate_s"] = in.calibrateS
	v["planner.live_diverged"] = float64(in.liveDiverged)
	v["graph.parse_ms"] = median(parseMs)

	for alg, a := range perAlg {
		v[alg+".kernel_ms"] = median(a.timeMs)
		v[alg+".comm_frac"] = median(a.commFrac)
		v[alg+".supersteps"] = median(a.supersteps)
		v[alg+".comm_words"] = median(a.words)
		v[alg+".max_ops"] = median(a.maxOps)
		switch alg {
		case service.AlgMinCut:
			v["mincut.trials"] = median(a.extra)
		case service.AlgApproxCut:
			v["approxcut.iterations"] = median(a.extra)
		}
	}
	v["mincut.miss"] = float64(in.ev.misses)

	v["bsp.comm_ms"] = median(bspComm)
	v["bsp.app_ms"] = median(bspApp)
	v["bsp.supersteps_per_query"] = mean(bspSS)
	v["bsp.max_h_relation"] = median(bspH)
	v["bsp.avoided_collectives"] = mean(bspAvoided)

	if tcpN > 0 {
		v["transport.wire_bytes_per_query"] = tcpWire / float64(tcpN)
		v["transport.raw_bytes_per_query"] = tcpRaw / float64(tcpN)
		if tcpWire > 0 {
			v["transport.compression"] = tcpRaw / tcpWire
		}
		if tcpSS > 0 {
			v["transport.comm_ms_per_superstep"] = tcpComm / tcpSS
		}
	}

	v["shard.frontend_ms"] = median(feMs)
	v["shard.control_ms"] = median(controlMs)
	v["shard.replicate_ms"] = median(replicateMs)
	v["shard.stalled"] = float64(in.ev.stalled)

	if selfN > 0 {
		for layer, sum := range self {
			v["self."+layer+"_ms"] = sum / float64(selfN)
		}
	}

	v["trace.overhead_p50_ms"] = median(in.ev.queryMs) - median(in.untraced.queryMs)
	if u := float64(in.untraced.correct) / in.untraced.wallS; u > 0 {
		v["trace.overhead_qps_frac"] = 1 - (float64(in.ev.correct)/in.ev.wallS)/u
	}

	out := make(map[string]metric, len(v))
	for name, val := range v {
		out[name] = metric{Value: val, Unit: perLayerUnits[name]}
	}
	return out
}

// algAgg collects one algorithm's kernel profiles from executed replies.
type algAgg struct {
	timeMs, commFrac, supersteps, words, maxOps, extra []float64
}

func (a *algAgg) add(r *service.QueryResponse) {
	k := r.Kernel
	a.timeMs = append(a.timeMs, k.TimeMs)
	if k.TimeMs > 0 {
		a.commFrac = append(a.commFrac, k.CommTimeMs/k.TimeMs)
	}
	a.supersteps = append(a.supersteps, float64(k.Supersteps))
	a.words = append(a.words, float64(k.CommVolume))
	a.maxOps = append(a.maxOps, float64(k.MaxOps))
	switch r.Algorithm {
	case service.AlgMinCut:
		a.extra = append(a.extra, float64(r.Trials))
	case service.AlgApproxCut:
		a.extra = append(a.extra, float64(r.Iterations))
	}
}

// selfTimeTable renders the mean per-query self time of each layer; the
// rows sum to the mean client latency of the traced queries.
func selfTimeTable(m map[string]metric) string {
	var b strings.Builder
	layers := []string{"client", "frontend", "handler", "engine", "kernel_app", "kernel_comm"}
	total := 0.0
	for _, l := range layers {
		total += m["self."+l+"_ms"].Value
	}
	fmt.Fprintf(&b, "self time per query (mean, ms; total %.3f):\n", total)
	for _, l := range layers {
		val := m["self."+l+"_ms"].Value
		share := 0.0
		if total > 0 {
			share = val / total
		}
		fmt.Fprintf(&b, "  %-12s %9.3f  %5.1f%%\n", l, val, 100*share)
	}
	return b.String()
}

func sortedNames(m map[string]string) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
