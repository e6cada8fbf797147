package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// opHeader carries the client operation's id to the first handler it
// reaches. The frontend does not forward it; a leader's spans are joined
// to the frontend span they fall inside.
const opHeader = "X-Bench-Op"

// span is one timed interval at a layer boundary. Offsets are from the
// tracer's base time, on the monotonic clock of this process.
type span struct {
	Op    uint64 `json:"op"` // client operation id (0: not carried)
	Layer string `json:"layer"`
	Path  string `json:"path"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	base  time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap returns h with a timing middleware recording one span per request
// under layer; a nil tracer returns h itself, so untraced runs carry no
// tracing code on the request path.
func (t *tracer) wrap(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Since(t.base)
		h.ServeHTTP(w, r)
		end := time.Since(t.base)
		id, _ := strconv.ParseUint(r.Header.Get(opHeader), 10, 64)
		t.add(span{Op: id, Layer: layer, Path: r.URL.Path, Start: int64(start), End: int64(end)})
	})
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes every span, the client spans included, as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// opSpans indexes a traced run's handler spans by what each client
// operation passed through: the outermost handler (service on a single
// process, frontend on the fleet) carries the op id; a fleet leader's
// span is the worker0 span on the same path inside the frontend span.
type opSpans struct {
	outer  map[uint64]span
	leader map[uint64]span
}

func indexSpans(spans []span) opSpans {
	ix := opSpans{outer: map[uint64]span{}, leader: map[uint64]span{}}
	var leader []span
	for _, s := range spans {
		switch {
		case s.Op != 0 && (s.Layer == "service" || s.Layer == "frontend"):
			ix.outer[s.Op] = s
		case s.Layer == "worker0" && s.Path == "/v1/query":
			leader = append(leader, s)
		}
	}
	for id, fe := range ix.outer {
		if fe.Layer != "frontend" || fe.Path != "/v1/query" {
			continue
		}
		for _, s := range leader {
			if s.Start >= fe.Start && s.End <= fe.End {
				ix.leader[id] = s
			}
		}
	}
	return ix
}
