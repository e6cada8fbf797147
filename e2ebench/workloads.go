package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/perfmodel"
	"repro/internal/service"
)

type opKind int

const (
	opQuery opKind = iota
	opUpload
)

// op is one client operation: a query, or an upload of a graph variant.
// think is how long the client pauses before issuing it.
type op struct {
	kind    opKind
	graph   string
	variant int
	req     service.QueryRequest
	think   time.Duration
}

func (o op) String() string {
	if o.kind == opUpload {
		return fmt.Sprintf("upload %s variant %d", o.graph, o.variant)
	}
	return fmt.Sprintf("%s on %s seed %d", o.req.Algorithm, o.req.Graph, o.req.Seed)
}

// stream yields one client's operations. It is a pure function of the
// workload seed and the client index.
type stream interface{ next() op }

// workload is one seeded scenario: its graphs (every variant with its
// oracle), how the system under test is configured, and the closed-loop
// clients that drive it.
type workload struct {
	name     string
	graphs   map[string][]*variant // variant 0 is uploaded at set-up
	fleet    bool                  // 2-rank TCP shard behind a frontend
	svc      service.Config
	clients  int
	tailPct  float64       // preferred tail percentile at the run length
	deadline time.Duration // per-query timeout_ms (0 = engine default)
	meshPhi  float64       // fleet mesh failure-detector threshold (0 = transport default)
	// streams returns client c's measured-phase operations; warmup the
	// operations run during set-up, after the initial uploads.
	streams func(c int) stream
	warmup  func() []op
}

// newWorkload builds the named workload; knownDefects applies to fleet only.
func newWorkload(name string, seed int64, knownDefects bool) (*workload, error) {
	switch name {
	case "serve":
		return serveWorkload(seed), nil
	case "solve":
		return solveWorkload(seed), nil
	case "fleet":
		return fleetWorkload(seed, knownDefects), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want serve, solve or fleet)", name)
}

// rngFor derives an independent, reproducible source for one purpose.
func rngFor(seed int64, purpose string, idx int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", seed, purpose, idx)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// disjointUnion places two copies of g side by side: two components, λ = 0.
func disjointUnion(a, b *graph.Graph) *graph.Graph {
	u := graph.New(a.N + b.N)
	for _, e := range a.Edges {
		u.AddEdge(e.U, e.V, e.W)
	}
	for _, e := range b.Edges {
		u.AddEdge(e.U+int32(a.N), e.V+int32(a.N), e.W)
	}
	return u
}

// relabel returns g with vertex u renamed perm[u]: the same graph, hence
// the same answers, as different upload content.
func relabel(g *graph.Graph, perm []int) *graph.Graph {
	out := graph.New(g.N)
	for _, e := range g.Edges {
		out.AddEdge(int32(perm[e.U]), int32(perm[e.V]), e.W)
	}
	return out
}

// nextVariant picks a variant different from cur.
func nextVariant(r *rand.Rand, cur, n int) int {
	return (cur + 1 + r.Intn(n-1)) % n
}

// coldSeed is a query seed no other query of the run shares, so the
// result cache cannot answer it.
func coldSeed(c int, k uint64) uint64 { return 1<<40 + uint64(c)<<32 + k }

// pinnedModels are cost-model constants from one start-up calibration on
// a 2-vCPU x86 host, installed through service.Config.PlannerModels so
// that the planner's picks are the same in every run. The calibration is
// timing-based: of 9 calibrations on that host, 8 picked shared for cc
// and stoerwagner for mincut on the serve graphs and one picked
// kargerstein, a 16× throughput swing on serve. Set-up still runs a live
// calibration (see startSystem), so its cost and its disagreement with
// these constants are measured.
var pinnedModels = map[string]*perfmodel.Model{
	"kargerstein": {A: 4.728230419532271e-8, B: 8.139184437131796e-8, C: 2.595701824437496e-5, D: 1.3518742478405832e-4},
	"labelprop":   {A: 1.8491587612624647e-9, B: 1.9577921222644124e-9, D: 6.69829591183772e-5},
	"lowround":    {A: 4.2218104781544045e-9, B: 8.587107172014164e-9, C: 6.27083389995819e-6},
	"sampling":    {A: 2.16073248971572e-8, B: 7.03388744614507e-9, C: 6.047433725626341e-6},
	"shared":      {A: 1.5293636686252218e-8},
	"stoerwagner": {A: 2.6916265001602988e-9, D: 3.2287243561474055e-4},
}

// plannerConfig is camcd's single-process default (static planner, cache
// 128, queue 64) with the pinned planner models.
func plannerConfig() service.Config {
	return service.Config{Planner: "static", CacheCapacity: 128, QueueBound: 64, PlannerModels: pinnedModels}
}

// ---- serve -------------------------------------------------------------

const (
	serveGraphs   = 8
	serveVariants = 4
	serveN        = 96
)

func serveWorkload(seed int64) *workload {
	graphs := make(map[string][]*variant, serveGraphs)
	r := rngFor(seed, "serve-graphs", 0)
	for i := 0; i < serveGraphs; i++ {
		vs := make([]*variant, serveVariants)
		for v := range vs {
			gs := uint64(r.Int63())
			if i == serveGraphs-1 {
				// The coldest graph is disconnected: cc answers 2, and
				// mincut and approxcut must answer 0.
				half := gen.WattsStrogatz(serveN/2, 6, 0.3, gs, gen.Config{MaxWeight: 4})
				vs[v] = newVariant(disjointUnion(half, gen.WattsStrogatz(serveN/2, 6, 0.3, gs+1, gen.Config{MaxWeight: 4})))
			} else {
				vs[v] = newVariant(gen.WattsStrogatz(serveN, 6, 0.3, gs, gen.Config{MaxWeight: 4}))
			}
		}
		graphs[fmt.Sprintf("s%d", i)] = vs
	}
	return &workload{
		name:    "serve",
		graphs:  graphs,
		svc:     plannerConfig(),
		clients: 2,
		tailPct: 0.99,
		streams: func(c int) stream { return newServeStream(seed, c) },
		warmup: func() []op {
			// Fill the cache with every warm key (8 graphs × 3 algorithms
			// × 4 seeds = 96 ≤ 128 entries).
			var ops []op
			for i := 0; i < serveGraphs; i++ {
				for _, alg := range []string{service.AlgCC, service.AlgMinCut, service.AlgApproxCut} {
					for s := uint64(1); s <= 4; s++ {
						ops = append(ops, op{kind: opQuery, req: service.QueryRequest{
							Graph: fmt.Sprintf("s%d", i), Algorithm: alg, Seed: s, IncludeSide: alg == service.AlgMinCut,
						}})
					}
				}
			}
			return ops
		},
	}
}

// serveStream is the loadgen mix in closed loop: Zipf(1.2) graph
// popularity, cc/mincut/approxcut = 0.70/0.15/0.15, 25% cache-defeating
// seeds, the rest from a 4-seed pool. Client 0 also re-uploads a hot
// graph as a different variant on 2% of its operations (~1% overall);
// only one client uploads so that it always knows the current variant.
type serveStream struct {
	c    int
	r    *rand.Rand
	zipf *rand.Zipf
	cur  []int
	cold uint64
}

func newServeStream(seed int64, c int) *serveStream {
	r := rngFor(seed, "serve-client", c)
	return &serveStream{c: c, r: r, zipf: rand.NewZipf(r, 1.2, 1, serveGraphs-1), cur: make([]int, serveGraphs)}
}

func (s *serveStream) next() op {
	g := int(s.zipf.Uint64())
	name := fmt.Sprintf("s%d", g)
	if s.c == 0 && s.r.Float64() < 0.02 {
		s.cur[g] = nextVariant(s.r, s.cur[g], serveVariants)
		return op{kind: opUpload, graph: name, variant: s.cur[g]}
	}
	req := service.QueryRequest{Graph: name}
	switch u := s.r.Float64(); {
	case u < 0.70:
		req.Algorithm = service.AlgCC
	case u < 0.85:
		req.Algorithm = service.AlgMinCut
		req.IncludeSide = true
	default:
		req.Algorithm = service.AlgApproxCut
	}
	if s.r.Float64() < 0.25 {
		s.cold++
		req.Seed = coldSeed(s.c, s.cold)
	} else {
		req.Seed = 1 + uint64(s.r.Intn(4))
	}
	return op{kind: opQuery, req: req}
}

// ---- solve -------------------------------------------------------------

const (
	solveVariants = 6
	solveN        = 128
	solveM        = 4000
)

// solveBases are the solve graph structures. They are the same for every
// seed, so every seed does the same kernel work; the seed picks each
// variant's vertex labelling and every query's seed.
const solveBases = 3

func solveWorkload(seed int64) *workload {
	r := rngFor(seed, "solve-graphs", 0)
	vs := make([]*variant, solveVariants)
	for v := range vs {
		base := gen.ErdosRenyiM(solveN, solveM, uint64(1+v%solveBases), gen.Config{MaxWeight: 8})
		vs[v] = newVariant(relabel(base, r.Perm(solveN)))
	}
	return &workload{
		name:    "solve",
		graphs:  map[string][]*variant{"big": vs},
		svc:     plannerConfig(),
		clients: 1,
		tailPct: 0.90,
		streams: func(c int) stream { return newSolveStream(seed) },
		warmup: func() []op {
			return []op{
				{kind: opQuery, req: solveQuery(service.AlgCC, 1)},
				{kind: opQuery, req: solveQuery(service.AlgApproxCut, 2)},
				{kind: opQuery, req: solveQuery(service.AlgMinCut, 3)},
			}
		},
	}
}

func solveQuery(alg string, seed uint64) service.QueryRequest {
	req := service.QueryRequest{Graph: "big", Algorithm: alg, Seed: seed, Processors: 2}
	switch alg {
	case service.AlgCC:
		req.Kernel = "sampling"
	case service.AlgMinCut:
		req.Kernel = "kargerstein"
		req.IncludeSide = true
	}
	return req
}

// solveRound is one round after the upload of a fresh version: the first
// cc query builds the p=2 plan, the rest run cold on it.
var solveRound = []string{service.AlgCC, service.AlgApproxCut, service.AlgMinCut, service.AlgCC, service.AlgApproxCut}

type solveStream struct {
	r    *rand.Rand
	cur  int
	pos  int // 0 = upload, then solveRound
	cold uint64
}

func newSolveStream(seed int64) *solveStream {
	return &solveStream{r: rngFor(seed, "solve-client", 0)}
}

func (s *solveStream) next() op {
	defer func() { s.pos = (s.pos + 1) % (len(solveRound) + 1) }()
	if s.pos == 0 {
		s.cur = nextVariant(s.r, s.cur, solveVariants)
		return op{kind: opUpload, graph: "big", variant: s.cur}
	}
	s.cold++
	return op{kind: opQuery, req: solveQuery(solveRound[s.pos-1], coldSeed(0, s.cold))}
}

// ---- fleet -------------------------------------------------------------

const (
	// fleetGraphs graphs f0.. are re-uploaded during the run; one more,
	// the last, never is.
	fleetGraphs   = 2
	fleetVariants = 4
	fleetN        = 32
	// fleetDeadline is every fleet query's timeout: about 10× the slowest
	// normal fleet query (p99 ~20 ms, maximum ~80 ms on 2 vCPUs), so a
	// query that reaches it has stalled rather than run slowly.
	fleetDeadline = 500 * time.Millisecond
	// fleetPhi is the mesh failure detector's threshold. The detector's
	// suspicion level is capped at 300, so this threshold turns severing
	// off; the default one severs healthy links (see README.md).
	fleetPhi = 1000
	// fleetThink is the mean pause of the racing re-upload client between
	// uploads, exponentially distributed.
	fleetThink = 500 * time.Microsecond
)

// fleetWorkload has two query clients. Client 0 runs rounds of an upload
// that replaces f0 or f1 with a different variant and three cold queries
// on them; the frontend acknowledges an upload only once every rank holds
// the new version, so none of its queries races an upload. Client 1 runs
// the same queries on the last graph, which is never re-uploaded. Two
// clients keep both vCPUs busy, which makes the figures steadier on a
// shared host than one client's ping-pong between the ranks. The mesh
// runs with failure-detector severing off, so no operation fails.
//
// With knownDefects client 0 only queries f0 and f1 while client 1
// re-uploads them nearly back to back, racing the queries, and the mesh
// keeps its default failure detector: both known fleet defects then show
// (see README.md) and failed operations are expected.
func fleetWorkload(seed int64, knownDefects bool) *workload {
	graphs := make(map[string][]*variant, fleetGraphs+1)
	r := rngFor(seed, "fleet-graphs", 0)
	base := gen.TwoCliques(fleetN/2, 4, 3, 1)
	for i := 0; i <= fleetGraphs; i++ {
		vs := make([]*variant, fleetVariants)
		for v := range vs {
			vs[v] = newVariant(relabel(base, r.Perm(base.N)))
		}
		graphs[fmt.Sprintf("f%d", i)] = vs
	}
	w := &workload{
		name:     "fleet",
		graphs:   graphs,
		fleet:    true,
		clients:  2,
		tailPct:  0.99,
		deadline: fleetDeadline,
		meshPhi:  fleetPhi,
		streams: func(c int) stream {
			if c == 0 {
				return newFleetStream(seed, 0, 0, fleetGraphs, true)
			}
			return newFleetStream(seed, 1, fleetGraphs, 1, false)
		},
		warmup: func() []op {
			var ops []op
			for i := 0; i <= fleetGraphs; i++ {
				for k, alg := range fleetRound {
					req := fleetQuery(fmt.Sprintf("f%d", i), alg, uint64(1+k))
					req.TimeoutMillis = 0 // first runs pay one-time costs
					ops = append(ops, op{kind: opQuery, req: req})
				}
			}
			return ops
		},
	}
	if knownDefects {
		w.meshPhi = 0
		w.streams = func(c int) stream {
			if c == 0 {
				return newFleetStream(seed, 0, 0, fleetGraphs, false)
			}
			return &fleetUploads{r: rngFor(seed, "fleet-uploads", 0), cur: make([]int, fleetGraphs)}
		}
	}
	return w
}

func fleetQuery(name, alg string, seed uint64) service.QueryRequest {
	return service.QueryRequest{
		Graph: name, Algorithm: alg, Seed: seed,
		TimeoutMillis: fleetDeadline.Milliseconds(),
		IncludeSide:   alg == service.AlgMinCut,
	}
}

// fleetRound is one round of a fleet query client: an upload (if the
// client uploads), then cold queries, each on a random one of its graphs.
var fleetRound = []string{service.AlgCC, service.AlgApproxCut, service.AlgMinCut}

// fleetStream is fleet query client c on graphs f<first>..f<first+n-1>.
type fleetStream struct {
	r        *rand.Rand
	c        int
	first, n int
	uploads  bool
	cur      []int
	pos      int // 0 = upload, then fleetRound
	cold     uint64
}

func newFleetStream(seed int64, c, first, n int, uploads bool) *fleetStream {
	return &fleetStream{r: rngFor(seed, "fleet-client", c), c: c, first: first, n: n, uploads: uploads, cur: make([]int, n)}
}

func (s *fleetStream) next() op {
	if s.pos == 0 && !s.uploads {
		s.pos = 1
	}
	defer func() { s.pos = (s.pos + 1) % (len(fleetRound) + 1) }()
	g := s.r.Intn(s.n)
	name := fmt.Sprintf("f%d", s.first+g)
	if s.pos == 0 {
		s.cur[g] = nextVariant(s.r, s.cur[g], fleetVariants)
		return op{kind: opUpload, graph: name, variant: s.cur[g]}
	}
	s.cold++
	return op{kind: opQuery, req: fleetQuery(name, fleetRound[s.pos-1], coldSeed(s.c, s.cold))}
}

// fleetUploads is the racing re-upload client: each upload replaces one
// graph with a different variant while queries on it may be in flight.
type fleetUploads struct {
	r   *rand.Rand
	cur []int
}

func (s *fleetUploads) next() op {
	g := s.r.Intn(fleetGraphs)
	s.cur[g] = nextVariant(s.r, s.cur[g], fleetVariants)
	think := time.Duration(s.r.ExpFloat64() * float64(fleetThink))
	return op{kind: opUpload, graph: fmt.Sprintf("f%d", g), variant: s.cur[g], think: think}
}

// ---- fingerprint -------------------------------------------------------

// fingerprintOps is how many operations of each client stream the
// schedule fingerprint covers.
const fingerprintOps = 4096

// fingerprint hashes everything the system will receive: every graph
// variant's upload body, the set-up operations, and the first
// fingerprintOps operations of each client's stream.
func (w *workload) fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%v|%g\n", w.name, w.clients, w.deadline, w.meshPhi)
	names := make([]string, 0, len(w.graphs))
	for name := range w.graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for i, v := range w.graphs[name] {
			fmt.Fprintf(h, "g|%s|%d|%016x\n", name, i, v.hash)
		}
	}
	writeOp := func(o op) {
		q := o.req
		fmt.Fprintf(h, "%d|%s|%d|%d|%s|%s|%d|%s|%d|%d|%t\n",
			o.kind, o.graph, o.variant, o.think, q.Graph, q.Algorithm, q.Seed, q.Kernel, q.Processors, q.TimeoutMillis, q.IncludeSide)
	}
	for _, o := range w.warmup() {
		writeOp(o)
	}
	for c := 0; c < w.clients; c++ {
		s := w.streams(c)
		for i := 0; i < fingerprintOps; i++ {
			writeOp(s.next())
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
