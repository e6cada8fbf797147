package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
	"repro/internal/service"
)

// sample is one client operation as the client saw it. Offsets are from
// the runner's base time.
type sample struct {
	op     op
	id     uint64
	start  time.Duration
	end    time.Duration
	status int    // 0 on a transport error
	err    string // transport error or error body
	resp   *service.QueryResponse
	info   *service.GraphInfo
	// parseMs is a direct graph.ReadEdgeList of the upload body, timed on
	// traced runs only.
	parseMs float64
}

func (s *sample) ms() float64 { return float64(s.end-s.start) / 1e6 }

// runner drives one running system with the workload's clients.
type runner struct {
	w      *workload
	sys    *system
	client *http.Client
	book   *versionBook
	base   time.Time
	traced bool
	nextID atomic.Uint64
}

func newRunner(w *workload, sys *system, book *versionBook, base time.Time, traced bool) *runner {
	return &runner{
		w: w, sys: sys, book: book, base: base, traced: traced,
		client: &http.Client{
			Timeout:   20 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 4},
		},
	}
}

func (r *runner) close() { r.client.CloseIdleConnections() }

// do performs one operation and records what came back. Uploads the
// system acknowledged enter the version book.
func (r *runner) do(o op) sample {
	s := sample{op: o, id: r.nextID.Add(1)}
	var (
		url  string
		body []byte
		ct   string
	)
	if o.kind == opUpload {
		v := r.w.graphs[o.graph][o.variant]
		url, body, ct = r.sys.url+"/v1/graphs?name="+o.graph, v.body, "text/plain"
		if r.traced {
			t0 := time.Now()
			if _, err := graph.ReadEdgeList(bytes.NewReader(body)); err != nil {
				panic(fmt.Sprintf("benchmark graph does not parse: %v", err))
			}
			s.parseMs = float64(time.Since(t0)) / 1e6
		}
	} else {
		var err error
		if body, err = json.Marshal(o.req); err != nil {
			panic(err) // a QueryRequest always marshals
		}
		url, ct = r.sys.url+"/v1/query", "application/json"
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		panic(err) // the URL is built from a loopback address
	}
	req.Header.Set("Content-Type", ct)
	req.Header.Set(opHeader, strconv.FormatUint(s.id, 10))

	s.start = time.Since(r.base)
	resp, err := r.client.Do(req)
	var data []byte
	if err == nil {
		data, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	s.end = time.Since(r.base)
	if err != nil {
		s.err = err.Error()
		return s
	}
	s.status = resp.StatusCode
	switch {
	case o.kind == opUpload && s.status == http.StatusCreated:
		s.info = new(service.GraphInfo)
		if err := json.Unmarshal(data, s.info); err != nil {
			s.status, s.err = 0, "undecodable upload reply: "+err.Error()
			return s
		}
		r.book.record(o.graph, s.info.Version, o.variant)
	case o.kind == opQuery && s.status == http.StatusOK:
		s.resp = new(service.QueryResponse)
		if err := json.Unmarshal(data, s.resp); err != nil {
			s.status, s.err = 0, "undecodable query reply: "+err.Error()
		}
	default:
		s.err = string(bytes.TrimSpace(data))
	}
	return s
}

// phase runs every client in closed loop for d: each issues its next
// operation only after the previous one returned, and none starts after
// d has passed. Each client judges its replies as they arrive. The
// returned samples, ordered by start time, are every operation on a
// traced runner and none otherwise; wallS includes the operations still
// running at d.
func (r *runner) phase(d time.Duration) (*evaluation, []sample, error) {
	type client struct {
		ev      *evaluation
		pending []sample
		kept    []sample
		err     error
	}
	t0 := time.Now()
	cs := make([]client, r.w.clients)
	var wg sync.WaitGroup
	for c := range cs {
		cs[c].ev = newEvaluation()
		wg.Add(1)
		go func(cl *client, c int) {
			defer wg.Done()
			st := r.w.streams(c)
			for {
				o := st.next()
				if o.think > 0 {
					time.Sleep(o.think)
				}
				if time.Since(t0) >= d {
					return
				}
				s := r.do(o)
				pending, err := cl.ev.add(r.w, r.book, &s)
				if err != nil && cl.err == nil {
					cl.err = err
				}
				if pending {
					cl.pending = append(cl.pending, s)
				}
				if r.traced {
					cl.kept = append(cl.kept, s)
				}
			}
		}(&cs[c], c)
	}
	wg.Wait()
	ev := newEvaluation()
	ev.wallS = time.Since(t0).Seconds()
	var kept []sample
	for i := range cs {
		if cs[i].err != nil {
			return nil, nil, cs[i].err
		}
		for j := range cs[i].pending {
			if err := cs[i].ev.judge(r.w, r.book, &cs[i].pending[j]); err != nil {
				return nil, nil, err
			}
		}
		ev.merge(cs[i].ev)
		kept = append(kept, cs[i].kept...)
	}
	sort.Slice(kept, func(i, j int) bool { return kept[i].start < kept[j].start })
	return ev, kept, nil
}

// setup brings the system up, uploads variant 0 of every graph and runs
// the warm-up operations; the returned duration is the set-up time.
func setup(w *workload, book *versionBook, tr *tracer) (*system, time.Duration, error) {
	t0 := time.Now()
	sys, err := startSystem(w, tr)
	if err != nil {
		return nil, 0, err
	}
	r := newRunner(w, sys, book, t0, false)
	defer r.close()
	names := make([]string, 0, len(w.graphs))
	for name := range w.graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	var ops []op
	for _, name := range names {
		ops = append(ops, op{kind: opUpload, graph: name})
	}
	ops = append(ops, w.warmup()...)
	for _, o := range ops {
		s := r.do(o)
		if s.err != "" || (s.status != http.StatusOK && s.status != http.StatusCreated) {
			sys.close()
			return nil, 0, fmt.Errorf("set-up %s: status %d: %s", o, s.status, s.err)
		}
	}
	return sys, time.Since(t0), nil
}

// fetchStats reads the answering engine's /v1/stats.
func fetchStats(url string) (*service.EngineStats, error) {
	resp, err := http.Get(url + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st service.EngineStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decode /v1/stats: %w", err)
	}
	return &st, nil
}
