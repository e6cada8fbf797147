// Command e2ebench is the repository benchmark: it brings the system up
// in this process over loopback HTTP, replays a seeded workload from
// closed-loop clients, checks every reply against an oracle it computes
// itself, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a separate traced run) as one JSON line.
//
//	bash e2ebench/run.sh --workload serve --seed 1 --seconds 30 --trace 0
//
// See README.md for the workloads, metrics and failure policy.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/mincut"
	"repro/internal/planner"
)

// A run sets the system up at least minSetups times and until setupBudget
// has been spent (at most maxSetups); setup_s is the median and the last
// instance serves the measured phase. Quick set-ups repeat more, so their
// median is as steady as that of slow ones.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 4 * time.Second
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run() error {
	var (
		name    = flag.String("workload", "", "serve, solve or fleet")
		seed    = flag.Int64("seed", 1, "workload seed: fixes every graph and request")
		seconds = flag.Int("seconds", 10, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1: also run a traced phase and report per-layer metrics")
		defects = flag.Bool("known-defects", false, "fleet: race re-uploads against queries and keep the default mesh failure detector, which shows both known fleet defects")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("need --seconds >= 1 and --trace 0|1")
	}
	w, err := newWorkload(*name, *seed, *defects)
	if err != nil {
		return err
	}
	fmt.Printf("workload %s seed %d schedule fingerprint %s\n", w.name, *seed, w.fingerprint())
	d := time.Duration(*seconds) * time.Second

	var (
		sys    *system
		book   *versionBook
		setups []float64
		calibS []float64
	)
	for spent := time.Duration(0); len(setups) < minSetups || (spent < setupBudget && len(setups) < maxSetups); {
		if sys != nil {
			sys.close()
		}
		book = newVersionBook()
		var t time.Duration
		if sys, t, err = setup(w, book, nil); err != nil {
			return err
		}
		spent += t
		setups = append(setups, t.Seconds())
		calibS = append(calibS, sys.calibrate.Seconds())
	}
	r := newRunner(w, sys, book, time.Now(), false)
	ev, _, err := r.phase(d)
	r.close()
	sys.close()
	if err != nil {
		return err
	}
	tl, err := tailLatency(ev.queryMs, w.tailPct)
	if err != nil {
		return err
	}
	fmt.Printf("latency_tail_ms is p%g of %d query latencies, %d beyond it\n", tl.Pct*100, tl.N, tl.Beyond)
	summarize("untraced", ev)

	res := result{Correct: true, Attempted: ev.attempted, Failed: ev.failed}
	if *trace == 0 {
		res.Metrics = endToEnd(ev, tl, median(setups), peakRSSMB())
		return printResult(res)
	}

	// The traced run: a fresh system whose handlers carry the timing
	// middleware, the same schedule, and per-layer attribution.
	tr := newTracer()
	tbook := newVersionBook()
	tsys, _, err := setup(w, tbook, tr)
	if err != nil {
		return err
	}
	before, err := fetchStats(tsys.engineURL)
	if err != nil {
		tsys.close()
		return err
	}
	tr2 := newRunner(w, tsys, tbook, tr.base, true)
	tev, tsamples, perr := tr2.phase(d)
	tr2.close()
	after, err := fetchStats(tsys.engineURL)
	chooseUs, liveDiverged := timeChoose(w, tsys)
	tsys.close()
	if perr != nil {
		return perr
	}
	if err != nil {
		return err
	}
	summarize("traced", tev)
	spans := tr.snapshot()
	for i := range tsamples {
		s := &tsamples[i]
		path := "/v1/query"
		if s.op.kind == opUpload {
			path = "/v1/graphs"
		}
		spans = append(spans, span{Op: s.id, Layer: "client", Path: path, Start: int64(s.start), End: int64(s.end)})
	}
	spanPath := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, *seed))
	if err := writeSpans(spanPath, spans); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d spans to %s\n", len(spans), spanPath)
	m := perLayer(layerInput{
		samples: tsamples, ev: tev, untraced: ev, ix: indexSpans(spans),
		before: before, after: after, calibrateS: median(calibS), chooseUs: chooseUs, liveDiverged: liveDiverged,
	})
	fmt.Fprint(os.Stderr, selfTimeTable(m))
	res.Attempted, res.Failed, res.Metrics = tev.attempted, tev.failed, m
	return printResult(res)
}

func printResult(res result) error {
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func summarize(label string, ev *evaluation) {
	fmt.Fprintf(os.Stderr, "%s: %d ops in %.2fs, %d correct answers, %d failed (%d stalled, %d Monte Carlo misses), statuses %v, slowest query %.1f ms\n",
		label, ev.attempted, ev.wallS, ev.correct, ev.failed, ev.stalled, ev.misses, ev.statuses, quantile(ev.queryMs, 1))
	for status, e := range ev.errors {
		fmt.Fprintf(os.Stderr, "  status %d, e.g.: %.300s\n", status, e)
	}
}

// timeChoose times Engine.Planner().Choose directly on every graph
// variant for the two portfolio algorithms and returns the median
// per-call time in µs, plus how many of those decisions the live-calibrated
// planner makes differently. Both are 0 when the engine has no planner.
func timeChoose(w *workload, sys *system) (us float64, diverged int) {
	if sys.engine == nil || sys.engine.Planner() == nil {
		return 0, 0
	}
	pl := sys.engine.Planner()
	maxP := sys.engine.Stats().MaxProcessors
	const batch = 64
	var perCall []float64
	for _, vs := range w.graphs {
		for _, v := range vs {
			st := planner.StatsOf(v.g.Snapshot())
			for _, alg := range []string{"cc", "mincut"} {
				par := planner.Params{Epsilon: 0.5}
				if alg == "mincut" {
					par.Trials = mincut.Trials(v.g.N, len(v.g.Edges), 0.9)
				}
				t0 := time.Now()
				var d planner.Decision
				for i := 0; i < batch; i++ {
					d = pl.Choose(alg, st, par, 0, maxP)
				}
				perCall = append(perCall, float64(time.Since(t0))/1e3/batch)
				if l := sys.live.Choose(alg, st, par, 0, maxP); l.Kernel != d.Kernel || l.P != d.P {
					diverged++
				}
			}
		}
	}
	return median(perCall), diverged
}

// peakRSSMB is this process's peak resident set (VmHWM), in MB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}
