package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"s3cbcd/internal/core"
	"s3cbcd/internal/experiments"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/httpapi"
	"s3cbcd/internal/obs"
	"s3cbcd/internal/router"
	"s3cbcd/internal/store"
)

// routed_query: an HTTP query in, a JSON answer out, through an
// in-process router in front of 2 key-range groups × 2 replicas. The load
// is an open loop at the fixed rate given by --routed-rate-qps (stored in
// BENCHMARK.json's command), then a short closed loop at nproc
// connections for the capacity figure.
const (
	routedRecords  = 500000
	routedGroups   = 2
	routedReplicas = 2
	routedAlpha    = 0.8
	routedSigma    = 18
	routedQueryStd = 10 // per-component noise added to a stored fingerprint to make a query
	routedBatch    = 4  // fingerprints per batch request
	routedK        = 10 // k of kNN requests
	routedLeaves   = 64 // kNN leaf budget: an exact kNN on a group far from the query walks most of its tree
	// The mix: 80% single statistical queries, 5% batches, 15% kNN. The
	// batches are the only requests several times dearer than the rest;
	// keeping them well under 10% keeps p90 off the boundary between the
	// two cost modes, where it would swing from run to run.
	routedStatShare = 0.80
	routedBatchEnd  = 0.85
	routedRepeat    = 0.20 // share of requests that exactly repeat an earlier one
	routedCapShare  = 0.35 // share of the run spent in the closed-loop capacity phase
	routedOracleN   = 64   // answers compared with the single-node engine
	routedClients   = 2    // connections (nproc on the reference host)
	routedWarmS     = 3    // seconds of open loop before the measured phases
)

type routedKind int

const (
	kindStat routedKind = iota
	kindBatch
	kindKNN
)

func (k routedKind) path() string {
	return [...]string{"/search/statistical", "/search/statistical/batch", "/search/knn"}[k]
}

// routedReq is one generated request: its kind, body and fingerprints.
type routedReq struct {
	kind   routedKind
	body   []byte
	fps    [][]byte
	repeat bool
}

// makeRoutedRequests generates n requests of the mix; a routedRepeat
// share of them repeats an earlier request byte for byte.
func makeRoutedRequests(r *rand.Rand, corpus []store.Record, n int) []routedReq {
	query := func() []byte {
		src := corpus[r.Intn(len(corpus))].FP
		q := make([]byte, len(src))
		for j, b := range src {
			v := float64(b) + r.NormFloat64()*routedQueryStd
			q[j] = byte(math.Max(0, math.Min(255, math.Round(v))))
		}
		return q
	}
	ints := func(q []byte) []int {
		out := make([]int, len(q))
		for i, b := range q {
			out[i] = int(b)
		}
		return out
	}
	reqs := make([]routedReq, 0, n)
	for len(reqs) < n {
		if len(reqs) > 0 && r.Float64() < routedRepeat {
			prev := reqs[r.Intn(len(reqs))]
			prev.repeat = true
			reqs = append(reqs, prev)
			continue
		}
		var rq routedReq
		var body any
		switch u := r.Float64(); {
		case u < routedStatShare:
			rq.kind, rq.fps = kindStat, [][]byte{query()}
			body = map[string]any{"fingerprint": ints(rq.fps[0]), "alpha": routedAlpha, "sigma": routedSigma}
		case u < routedBatchEnd:
			rq.kind = kindBatch
			fps := make([][]int, routedBatch)
			for i := range fps {
				rq.fps = append(rq.fps, query())
				fps[i] = ints(rq.fps[i])
			}
			body = map[string]any{"fingerprints": fps, "alpha": routedAlpha, "sigma": routedSigma}
		default:
			rq.kind, rq.fps = kindKNN, [][]byte{query()}
			body = map[string]any{"fingerprint": ints(rq.fps[0]), "k": routedK, "maxLeaves": routedLeaves}
		}
		rq.body, _ = json.Marshal(body) // maps of ints and floats always marshal
		reqs = append(reqs, rq)
	}
	return reqs
}

// spanCtx is the trace position shared by the client and the handlers it
// calls in process. Traced ops run one at a time, so the router span of
// the current op is the parent of every backend span that starts while
// it is open.
type spanCtx struct {
	rec     atomic.Pointer[recorder]
	op      atomic.Int64
	net     atomic.Int64
	router  atomic.Int64
	backend atomic.Int64 // backend handlers in flight during a traced op
	respMu  sync.Mutex
	resp    []float64 // response bytes of backend handlers, traced phase
	handler float64   // summed backend handler time (ns), traced phase
}

// handlerNs returns the summed backend handler time and count so far.
func (sc *spanCtx) handlerNs() (float64, int) {
	sc.respMu.Lock()
	defer sc.respMu.Unlock()
	return sc.handler, len(sc.resp)
}

// spanHandler records a span named name around h's ServeHTTP when a
// recorder is armed; unarmed it adds one atomic load.
type spanHandler struct {
	name string
	h    http.Handler
	sc   *spanCtx
}

type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.n += int64(n)
	return n, err
}

func (s spanHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	rec := s.sc.rec.Load()
	if rec == nil {
		s.h.ServeHTTP(w, r)
		return
	}
	op := s.sc.op.Load()
	if s.name == "router" {
		id := rec.start("router", s.sc.net.Load(), op)
		s.sc.router.Store(id)
		s.h.ServeHTTP(w, r)
		rec.end(id)
		return
	}
	s.sc.backend.Add(1)
	defer s.sc.backend.Add(-1)
	cw := &countingWriter{ResponseWriter: w}
	id := rec.start("httpapi", s.sc.router.Load(), op)
	t0 := time.Now()
	s.h.ServeHTTP(cw, r)
	d := time.Since(t0)
	rec.end(id)
	s.sc.respMu.Lock()
	s.sc.resp = append(s.sc.resp, float64(cw.n))
	s.sc.handler += float64(d)
	s.sc.respMu.Unlock()
}

// fleet is the served topology of one set-up.
type fleet struct {
	backends []*httpapi.Server
	servers  []*http.Server
	router   *router.Router
	url      string
	wg       sync.WaitGroup
}

func (f *fleet) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	f.servers = append(f.servers, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// close stops the router's prober and every server, and waits for them.
func (f *fleet) close() {
	if f.router != nil {
		f.router.Close()
	}
	for _, s := range f.servers {
		s.Close()
	}
	f.wg.Wait()
}

// startFleet is the timed set-up: build each group's index from its
// key-range slice of the corpus, start 2 replicas per group with s3serve's
// defaults (plan cache on) at one shared explicit depth, and start the
// router over them with s3router's defaults.
func startFleet(curve *hilbert.Curve, groups [][]store.Record, depth int, sc *spanCtx) (*fleet, error) {
	f := &fleet{}
	var placement [][]string
	for _, recs := range groups {
		db, err := store.Build(curve, recs)
		if err != nil {
			return nil, err
		}
		var urls []string
		for r := 0; r < routedReplicas; r++ {
			s, err := httpapi.New(db, httpapi.Options{Depth: depth, PlanCache: true})
			if err != nil {
				f.close()
				return nil, err
			}
			f.backends = append(f.backends, s)
			u, err := f.serve(spanHandler{name: "httpapi", h: s, sc: sc})
			if err != nil {
				f.close()
				return nil, err
			}
			urls = append(urls, u)
		}
		placement = append(placement, urls)
	}
	rt, err := router.New(router.Options{Groups: placement})
	if err != nil {
		f.close()
		return nil, err
	}
	f.router = rt
	if f.url, err = f.serve(spanHandler{name: "router", h: rt, sc: sc}); err != nil {
		f.close()
		return nil, err
	}
	resp, err := http.Get(f.url + "/healthz")
	if err != nil {
		f.close()
		return nil, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		f.close()
		return nil, fmt.Errorf("router /healthz: %s", resp.Status)
	}
	return f, nil
}

// routedClient issues requests over at most routedClients connections.
type routedClient struct {
	hc   *http.Client
	base string
}

func newRoutedClient(base string) *routedClient {
	tr := &http.Transport{MaxIdleConnsPerHost: routedClients, MaxConnsPerHost: routedClients, DisableCompression: true}
	return &routedClient{hc: &http.Client{Transport: tr, Timeout: 30 * time.Second}, base: base}
}

func (c *routedClient) do(rq routedReq) ([]byte, error) {
	resp, err := c.hc.Post(c.base+rq.kind.path(), "application/json", bytes.NewReader(rq.body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: status %d: %s", rq.kind.path(), resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	if len(raw) == 0 || raw[0] != '{' {
		return nil, fmt.Errorf("%s: body is not a JSON object", rq.kind.path())
	}
	return raw, nil
}

func (c *routedClient) close() { c.hc.Transport.(*http.Transport).CloseIdleConnections() }

// wireMatch is one match as the API returns it.
type wireMatch struct {
	ID   uint32  `json:"id"`
	TC   uint32  `json:"tc"`
	X    uint16  `json:"x"`
	Y    uint16  `json:"y"`
	Dist float64 `json:"dist"`
}

type wireAnswer struct {
	Matches []wireMatch   `json:"matches"`
	Results [][]wireMatch `json:"results"`
	Plan    struct {
		FilterIters int `json:"filterIters"`
	} `json:"plan"`
}

// oracle answers statistical requests on a single-node engine over the
// whole corpus at the same depth, the reference the routed answers must
// equal. A leaf-budgeted kNN answer depends on how the corpus is split, so
// kNN requests are answered on one engine per group and merged by
// distance, the single-node path per group.
type oracle struct {
	eng    *core.Engine
	groups []*core.Engine
	sq     core.StatQuery
}

func toWire(ms []core.Match) []wireMatch {
	out := make([]wireMatch, len(ms))
	for i, m := range ms {
		out[i] = wireMatch{ID: m.ID, TC: m.TC, X: m.X, Y: m.Y}
		if m.Dist >= 0 {
			out[i].Dist = m.Dist
		}
	}
	return out
}

// check compares one routed answer with the single-node one. Statistical
// answers must be equal in canonical store order. kNN answers must have
// the same distances, and the same members wherever a distance is below
// the k-th (members tied at the k-th distance may differ).
func (o *oracle) check(rq routedReq, raw []byte) error {
	var got wireAnswer
	if err := json.Unmarshal(raw, &got); err != nil {
		return fmt.Errorf("decode answer: %w", err)
	}
	ctx := context.Background()
	switch rq.kind {
	case kindStat:
		ms, _, err := o.eng.SearchStat(ctx, rq.fps[0], o.sq)
		if err != nil {
			return err
		}
		return sameMatches(toWire(ms), got.Matches)
	case kindBatch:
		res, err := o.eng.SearchStatBatch(ctx, rq.fps, o.sq)
		if err != nil {
			return err
		}
		if len(res) != len(got.Results) {
			return fmt.Errorf("batch: %d results, want %d", len(got.Results), len(res))
		}
		for i := range res {
			if err := sameMatches(toWire(res[i]), got.Results[i]); err != nil {
				return fmt.Errorf("batch item %d: %w", i, err)
			}
		}
		return nil
	default:
		var all []wireMatch
		for _, g := range o.groups {
			ms, _, err := g.SearchKNN(ctx, rq.fps[0], routedK, routedLeaves)
			if err != nil {
				return err
			}
			all = append(all, toWire(ms)...)
		}
		sort.SliceStable(all, func(i, j int) bool { return all[i].Dist < all[j].Dist })
		return sameKNN(all[:min(routedK, len(all))], got.Matches)
	}
}

func sameMatches(want, got []wireMatch) error {
	if len(want) != len(got) {
		return fmt.Errorf("%d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			return fmt.Errorf("match %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return nil
}

func sameKNN(want, got []wireMatch) error {
	if len(want) != len(got) {
		return fmt.Errorf("knn: %d matches, want %d", len(got), len(want))
	}
	canon := func(ms []wireMatch) []wireMatch {
		c := append([]wireMatch(nil), ms...)
		sort.Slice(c, func(i, j int) bool {
			a, b := c[i], c[j]
			if a.Dist != b.Dist {
				return a.Dist < b.Dist
			}
			if a.ID != b.ID {
				return a.ID < b.ID
			}
			if a.TC != b.TC {
				return a.TC < b.TC
			}
			if a.X != b.X {
				return a.X < b.X
			}
			return a.Y < b.Y
		})
		return c
	}
	w, g := canon(want), canon(got)
	if len(w) == 0 {
		return nil
	}
	kth := w[len(w)-1].Dist
	for i := range w {
		if w[i].Dist != g[i].Dist {
			return fmt.Errorf("knn distance %d is %v, want %v", i, g[i].Dist, w[i].Dist)
		}
		if w[i].Dist < kth && w[i] != g[i] {
			return fmt.Errorf("knn match %d is %+v, want %+v", i, g[i], w[i])
		}
	}
	return nil
}

// routedSetup holds the generated inputs.
type routedSetup struct {
	curve  *hilbert.Curve
	groups [][]store.Record
	depth  int
	reqs   []routedReq
	warm   []routedReq // warm-up requests, drawn apart from reqs
}

// routedCorpusSeed generates the served corpus. It is the same for every
// seed, as a deployment's index is; the seed draws the request stream.
// With a corpus drawn per seed, the cost of a statistical query (its match
// count) differed enough between corpora to move the tail latency more
// than the run-to-run noise did.
const routedCorpusSeed = 20050405

func makeRoutedSetup(cfg config) (*routedSetup, error) {
	corpus := experiments.FPCorpus(routedRecords, routedCorpusSeed)
	curve, err := hilbert.New(20, 8)
	if err != nil {
		return nil, err
	}
	global, err := store.Build(curve, corpus)
	if err != nil {
		return nil, err
	}
	depth := core.DefaultDepth(curve, global.Len())
	// Groups are contiguous slices of the canonical (curve) order, so the
	// router's concatenation merge reproduces single-node answers.
	ordered := make([]store.Record, global.Len())
	for i := range ordered {
		ordered[i] = store.Record{FP: global.FP(i), ID: global.ID(i), TC: global.TC(i), X: global.X(i), Y: global.Y(i)}
	}
	per := len(ordered) / routedGroups
	var groups [][]store.Record
	for g := 0; g < routedGroups; g++ {
		hi := (g + 1) * per
		if g == routedGroups-1 {
			hi = len(ordered)
		}
		groups = append(groups, ordered[g*per:hi])
	}
	// Enough requests that neither loop runs out at several times the
	// expected capacity.
	n := int(cfg.routedQPS*cfg.seconds) + int(3000*cfg.seconds*routedCapShare) + 1000
	reqs := makeRoutedRequests(rand.New(rand.NewSource(cfg.seed*7919+22)), corpus, n)
	warm := makeRoutedRequests(rand.New(rand.NewSource(cfg.seed*7919+23)), corpus, int(cfg.routedQPS*routedWarmS)+1)
	return &routedSetup{curve: curve, groups: groups, depth: depth, reqs: reqs, warm: warm}, nil
}

// newOracle builds the single-node reference from the served groups' own
// stores, after the measured phase, so that its copy of the corpus is not
// part of the run's memory. The groups are contiguous in canonical order,
// so their records together are the whole corpus. The kNN reference runs
// on each group's index, shared with the group's first replica (an Index
// is read-only).
func newOracle(fl *fleet, curve *hilbert.Curve, depth int) (*oracle, error) {
	o := &oracle{sq: core.StatQuery{Alpha: routedAlpha, Model: core.IsoNormal{D: 20, Sigma: routedSigma}}}
	var all []store.Record
	for g := 0; g < routedGroups; g++ {
		ix := fl.backends[g*routedReplicas].Engine().Index()
		o.groups = append(o.groups, core.NewEngine(ix, 1, 1))
		db := ix.DB()
		for i := 0; i < db.Len(); i++ {
			all = append(all, store.Record{FP: db.FP(i), ID: db.ID(i), TC: db.TC(i), X: db.X(i), Y: db.Y(i)})
		}
	}
	global, err := store.Build(curve, all)
	if err != nil {
		return nil, err
	}
	ix, err := core.NewIndex(global, depth)
	if err != nil {
		return nil, err
	}
	o.eng = core.NewEngine(ix, 1, 1)
	return o, nil
}

// cpuSeconds returns the user and system CPU time the process has used
// (every goroutine: client, router and backends), NaN if unavailable.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
}

// opResult is one completed request of a load phase.
type opResult struct {
	idx  int
	op   openLoopOp
	raw  []byte
	err  error
	keep bool
}

// openLoop sends reqs[from:from+n] at rate per second over routedClients
// connections; request i is due at dueAt(i, rate) after the start. It
// returns the results in request order and the generator's own lateness
// in ms (how late each request was handed to the connections).
func openLoop(c *routedClient, reqs []routedReq, from, n int, rate float64, keepEvery int) ([]opResult, []float64) {
	res := make([]opResult, n)
	genLate := make([]float64, n)
	jobs := make(chan int, n) // sized to the number of sends: the generator never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < routedClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				sent := time.Since(start)
				raw, err := c.do(reqs[from+i])
				r := &res[i]
				r.idx, r.err = from+i, err
				r.op = openLoopOp{due: dueAt(i, rate), sent: sent, done: time.Since(start)}
				if keepEvery > 0 && i%keepEvery == 0 {
					r.raw, r.keep = raw, true
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		due := dueAt(i, rate)
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		genLate[i] = ms(max(time.Since(start)-due, 0))
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return res, genLate
}

// closedLoop runs routedClients connections back to back over
// reqs[from:] for d and returns the completion offsets and the failures.
func closedLoop(c *routedClient, reqs []routedReq, from int, d time.Duration) (doneAt []time.Duration, failed int) {
	var next, bad atomic.Int64
	next.Store(int64(from))
	var mu sync.Mutex
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < routedClients; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(start) < d {
				i := int(next.Add(1)-1) % len(reqs)
				if _, err := c.do(reqs[i]); err != nil {
					bad.Add(1)
				}
				t := time.Since(start)
				mu.Lock()
				doneAt = append(doneAt, t)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return doneAt, int(bad.Load())
}

func runRoutedQuery(cfg config) (*outcome, error) {
	t0 := time.Now()
	rs, err := makeRoutedSetup(cfg)
	if err != nil {
		return nil, err
	}
	inputS := time.Since(t0).Seconds()
	sc := &spanCtx{}
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var fl *fleet
	var setups []float64
	for i := 0; i < reps; i++ {
		if fl != nil {
			fl.close()
			fl = nil
		}
		runtime.GC()
		t0 := time.Now()
		if fl, err = startFleet(rs.curve, rs.groups, rs.depth, sc); err != nil {
			return nil, fmt.Errorf("routed_query set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer fl.close()
	c := newRoutedClient(fl.url)
	defer c.close()
	out := newOutcome()
	out.metrics["setup_s"] = median(setups)
	out.extra["setup_s_samples"] = setups
	out.extra["input_generation_s"] = inputS
	out.extra["records"] = routedRecords
	out.extra["depth"] = rs.depth
	out.extra["configured_repeat_share"] = routedRepeat
	if !cfg.trace {
		rs.groups = nil // indexed by the backends; the run needs only the requests
		releaseMemory()
	}
	// Warm up with an open loop at the run's rate over requests of their
	// own, so that no measured request finds its plan cached by the
	// warm-up: the heap regrows to its working size, and the connection
	// pools, the plan caches and the router's latency windows fill, before
	// anything is measured. Without it the first seconds of the open loop
	// had the highest latencies of the run.
	warm, _ := openLoop(c, rs.warm, 0, len(rs.warm), cfg.routedQPS, 0)
	for _, r := range warm {
		if r.err != nil {
			return nil, fmt.Errorf("warm-up: %w", r.err)
		}
	}
	if cfg.trace {
		return out, routedTraced(cfg, rs, fl, c, sc, out)
	}
	hedges := func() float64 { return sumSeries(promValues(fl.router.Metrics()), "s3_router_hedges_total") }
	h0 := hedges()
	mem := startMemPeak()
	openDur := cfg.seconds * (1 - routedCapShare)
	n := int(cfg.routedQPS * openDur)
	cpu0 := cpuSeconds()
	res, genLate := openLoop(c, rs.reqs, 0, n, cfg.routedQPS, max(n/routedOracleN, 1))
	cpu1 := cpuSeconds()
	ops := make([]openLoopOp, len(res))
	repeats := 0
	for i, r := range res {
		ops[i] = r.op
		out.attempted++
		if rs.reqs[i].repeat {
			repeats++
		}
		if r.err != nil {
			out.failed++
			out.notes = appendCapped(out.notes, "request failed: "+r.err.Error())
		}
	}
	lat, _ := openLoopLatency(ops)
	byKind := map[string][]float64{}
	for i, l := range lat {
		k := [...]string{"stat", "batch", "knn"}[rs.reqs[i].kind]
		byKind[k] = append(byKind[k], l)
	}
	for k, v := range byKind {
		out.extra["latency_p50_ms_"+k] = median(v)
		out.extra["latency_p90_ms_"+k], _ = percentile(v, 0.90)
		out.extra["share_"+k] = float64(len(v)) / float64(len(lat))
	}
	// Memory is the open loop's: a fixed request stream at a fixed rate. In
	// the capacity phase the plan caches fill with as many distinct
	// requests as the fleet manages to serve, which would tie the figure to
	// capacity_qps.
	out.metrics["mem_peak_mb"] = mem.end(out)
	h1 := hedges()
	capDur := seconds(cfg.seconds * routedCapShare)
	capDone, capFailed := closedLoop(c, rs.reqs, n, capDur)
	out.extra["hedges_per_request_open_loop"] = (h1 - h0) / float64(max(n, 1))
	out.extra["hedges_per_request_capacity"] = (hedges() - h1) / float64(max(len(capDone), 1))
	out.attempted += len(capDone)
	out.failed += capFailed
	orc, err := newOracle(fl, rs.curve, rs.depth)
	if err != nil {
		return nil, fmt.Errorf("routed_query oracle: %w", err)
	}
	checked := 0
	for _, r := range res {
		if !r.keep || r.err != nil {
			continue
		}
		checked++
		if err := orc.check(rs.reqs[r.idx], r.raw); err != nil {
			out.failed++
			out.notes = appendCapped(out.notes, fmt.Sprintf("oracle mismatch on request %d: %v", r.idx, err))
		}
	}
	p90, _ := percentile(lat, 0.90)
	p99, enough := tailPercentile(lat, 0.99)
	if !enough {
		out.notes = append(out.notes, fmt.Sprintf("latency p99 has fewer than %d samples beyond it (%d requests)", minTail, len(lat)))
	}
	out.metrics["latency_p50_ms"] = median(lat)
	out.extra["latency_p90_ms"] = p90
	// The gated throughput is the open loop's requests per CPU-second of
	// the process. capacity_qps is reported beside it: on a shared 2-core
	// host its spread across runs reached the largest bound a metric may
	// have, while the CPU cost per request at a fixed rate stayed steadier.
	out.metrics["throughput_per_s"] = float64(n) / (cpu1 - cpu0)
	out.extra["requests_per_cpu_s"] = out.metrics["throughput_per_s"]
	gl99, _ := percentile(genLate, 0.99)
	out.extra["open_loop_requests"] = n
	out.extra["open_loop_rate_qps"] = cfg.routedQPS
	out.extra["latency_p99_ms"] = p99
	out.extra["latency_ms_samples"] = rounded(lat)
	out.extra["capacity_qps"] = windowRate(capDone, capDur, time.Second)
	out.extra["capacity_requests"] = len(capDone)
	out.extra["measured_repeat_share"] = float64(repeats) / float64(max(n, 1))
	out.extra["oracle_checked"] = checked
	out.extra["generator_late_p99_ms"] = gl99
	out.extra["error_ratio"] = float64(out.failed) / float64(out.attempted)
	out.notes = append(out.notes, "latency_* are open-loop latencies timed from each request's due time; throughput_per_s is requests per CPU-second of the process (client, router and backends) over the open loop; capacity_qps is the median over 1 s windows of the closed-loop phase at nproc connections")
	return out, nil
}

func appendCapped(notes []string, s string) []string {
	if len(notes) < 20 {
		notes = append(notes, s)
	}
	return notes
}

// promValues parses a Prometheus text exposition into series → value.
func promValues(reg *obs.Registry) map[string]float64 {
	var b bytes.Buffer
	reg.WritePrometheus(&b)
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sumSeries adds the values of every series whose name starts with prefix.
func sumSeries(vals map[string]float64, prefix string) float64 {
	s := 0.0
	for k, v := range vals {
		if strings.HasPrefix(k, prefix) {
			s += v
		}
	}
	return s
}

// backendTotals sums engine counters over every backend.
type backendTotals struct {
	planSec, refineSec, statQ, knnQ, plans, descent, blocks, cands float64
	hits, misses                                                   int64
}

func readBackends(bs []*httpapi.Server) backendTotals {
	var t backendTotals
	for _, s := range bs {
		v := promValues(s.Metrics())
		t.planSec += v["s3_engine_plan_seconds_sum"]
		t.refineSec += v["s3_engine_refine_seconds_sum"]
		t.statQ += v["s3_engine_stat_queries_total"]
		t.knnQ += v["s3_engine_knn_queries_total"]
		t.plans += v["s3_engine_plans_total"]
		t.descent += v["s3_engine_descent_nodes_total"]
		t.blocks += v["s3_engine_plan_blocks_sum"]
		t.cands += v["s3_engine_candidates_refined_total"]
		if st, ok := s.Engine().PlanCacheStats(); ok {
			t.hits += st.Hits
			t.misses += st.Misses
		}
	}
	return t
}

func (a backendTotals) sub(b backendTotals) backendTotals {
	return backendTotals{
		planSec: a.planSec - b.planSec, refineSec: a.refineSec - b.refineSec,
		statQ: a.statQ - b.statQ, knnQ: a.knnQ - b.knnQ, plans: a.plans - b.plans,
		descent: a.descent - b.descent, blocks: a.blocks - b.blocks, cands: a.cands - b.cands,
		hits: a.hits - b.hits, misses: a.misses - b.misses,
	}
}

// routedTraced runs three phases: the open loop untraced for the
// generator's lateness, then ops one at a time untraced, then the
// following ops one at a time traced, with spans around the client round
// trip ("net"), Router.ServeHTTP ("router") and each backend's
// Server.ServeHTTP ("httpapi"). Engine time inside a backend comes from
// the backends' own plan/refine histograms, read between ops.
func routedTraced(cfg config, rs *routedSetup, fl *fleet, c *routedClient, sc *spanCtx, out *outcome) error {
	third := cfg.seconds / 3
	n := int(cfg.routedQPS * third)
	res, genLate := openLoop(c, rs.reqs, 0, n, cfg.routedQPS, 0)
	for _, r := range res {
		out.attempted++
		if r.err != nil {
			out.failed++
		}
	}
	next := n
	var untraced []float64
	start := time.Now()
	for time.Since(start) < seconds(third) {
		t0 := time.Now()
		_, err := c.do(rs.reqs[next%len(rs.reqs)])
		untraced = append(untraced, float64(time.Since(t0)))
		out.attempted++
		if err != nil {
			out.failed++
		}
		next++
	}
	rec := newRecorder()
	sc.rec.Store(rec)
	routerBefore := promValues(fl.router.Metrics())
	beBefore := readBackends(fl.backends)
	var traced []float64
	var engineNs, backendNs, backendReqs, matches, filterIters, statOps float64
	for i := 0; i < len(untraced); i++ {
		rq := rs.reqs[next%len(rs.reqs)]
		next++
		opID := rec.newOp()
		sc.op.Store(opID)
		before := readBackends(fl.backends)
		hBefore, nBefore := sc.handlerNs()
		op := rec.start("op", 0, opID)
		netID := rec.start("net", op, opID)
		sc.net.Store(netID)
		t0 := time.Now()
		raw, err := c.do(rq)
		d := time.Since(t0)
		rec.end(netID)
		rec.end(op)
		waitIdle(&sc.backend) // hedged or retried attempts still running
		traced = append(traced, float64(d))
		out.attempted++
		if err != nil {
			out.failed++
			continue
		}
		var ans wireAnswer
		if err := json.Unmarshal(raw, &ans); err != nil {
			out.failed++
			continue
		}
		matches += float64(len(ans.Matches))
		for _, r := range ans.Results {
			matches += float64(len(r))
		}
		if rq.kind == kindStat {
			filterIters += float64(ans.Plan.FilterIters)
			statOps++
		}
		if rq.kind != kindKNN {
			delta := readBackends(fl.backends).sub(before)
			engineNs += (delta.planSec + delta.refineSec) * 1e9
			h, n := sc.handlerNs()
			backendNs += h - hBefore
			backendReqs += float64(n - nBefore)
		}
	}
	sc.rec.Store(nil)
	encodeNs := encodeNsPerKey(rec, rs.curve, rs.groups[0])
	spans := rec.snapshot()
	be := readBackends(fl.backends).sub(beBefore)
	rt := promValues(fl.router.Metrics())
	rtd := func(prefix string) float64 { return sumSeries(rt, prefix) - sumSeries(routerBefore, prefix) }
	out.spans = spans
	out.layers, out.opTotalNs = selfTimes(spans, "op")
	out.layers = splitCore(out.layers, engineNs, backendNs, out.opTotalNs)
	m := out.metrics
	zeroAll(m)
	ops := float64(len(traced))
	m["core.plan_us"] = ratio(be.planSec*1e6, be.statQ)
	m["core.refine_us"] = ratio(be.refineSec*1e6, be.statQ)
	m["core.descent_nodes"] = ratio(be.descent, be.plans)
	m["core.blocks"] = ratio(be.blocks, be.plans)
	m["core.filter_iters"] = ratio(filterIters, statOps)
	m["core.candidates"] = ratio(be.cands, be.statQ+be.knnQ)
	m["core.match_ratio"] = ratio(matches, be.cands)
	m["core.plan_cache_hit_ratio"] = ratio(float64(be.hits), float64(be.hits+be.misses))
	m["hilbert.encode_ns"] = encodeNs
	m["httpapi.handler_self_us"] = ratio(backendNs-engineNs, backendReqs) / 1e3
	m["httpapi.response_bytes"] = mean(sc.resp)
	routerSelf, routerN := layerSelf(spans, "router")
	m["router.self_us"] = ratio(routerSelf, routerN) / 1e3
	m["router.fanout"] = ratio(rtd("s3_router_backend_requests_total"), ops)
	m["router.retries"] = rtd("s3_router_retries_total")
	m["router.hedges"] = rtd("s3_router_hedges_total")
	m["router.hedge_wins"] = rtd("s3_router_hedge_wins_total")
	netSelf, netN := layerSelf(spans, "net")
	m["net.wait_us"] = ratio(netSelf, netN) / 1e3
	gl99, _ := percentile(genLate, 0.99)
	m["bench.generator_late_ms"] = gl99
	m["bench.trace_overhead_ratio"] = sum(traced) / sum(untraced)
	out.extra["ops_traced"] = len(traced)
	out.notes = append(out.notes,
		"core.*: backend engine counters over the traced ops; plan_us and refine_us per statistical query (cache hits plan nothing), descent_nodes/blocks per computed plan, candidates per engine query, filter_iters per single statistical request",
		"core.match_ratio = matches returned to the client / candidates refined on all backends (hedged duplicates included)",
		"httpapi.handler_self_us = backend ServeHTTP time minus its engine plan+refine time, per backend request, over statistical requests (kNN engine time has no histogram)",
		"router.self_us = router span minus the union of its backend spans; net.wait_us = client round trip minus the router span",
		"router.retries/hedges/hedge_wins are counts over the traced ops; router.fanout = backend requests per client request",
		"bench.generator_late_ms = p99 of how late the open-loop generator handed requests to the connections",
		"bench.trace_overhead_ratio = traced op time / untraced op time, ops one at a time, consecutive request streams",
		"0 = layer not on this path: fingerprint, cbcd, vote, live index, cold tier")
	return nil
}

// layerSelf returns the summed self time (ns) and count of spans named
// name over every op.
func layerSelf(spans []span, name string) (float64, float64) {
	rows, _ := selfTimes(spans, "op")
	for _, r := range rows {
		if r.Layer == name {
			return float64(r.SelfNs), float64(r.Spans)
		}
	}
	return 0, 0
}

// splitCore splits the httpapi row into the engine time measured inside
// backend handlers and the handler's own time, in the proportion measured
// over statistical requests (engineNs of backendNs); kNN requests, whose
// engine time has no histogram, are split in the same proportion.
func splitCore(rows []layerTime, engineNs, backendNs float64, opTotal int64) []layerTime {
	f := ratio(engineNs, backendNs)
	for i := range rows {
		if rows[i].Layer != "httpapi" {
			continue
		}
		h := rows[i]
		core := layerTime{Layer: "core (backend engine)", SelfNs: int64(f * float64(h.SelfNs)), WallNs: f * h.WallNs}
		h.Layer = "httpapi (minus core)"
		h.SelfNs -= core.SelfNs
		h.WallNs -= core.WallNs
		for _, r := range []*layerTime{&h, &core} {
			r.Share = float64(r.SelfNs) / float64(opTotal)
			r.WallShare = r.WallNs / float64(opTotal)
		}
		rows[i] = h
		rows = append(rows, core)
		break
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].SelfNs > rows[j].SelfNs })
	return rows
}

// waitIdle waits, up to a second, until no backend handler is running.
func waitIdle(n *atomic.Int64) {
	for deadline := time.Now().Add(time.Second); n.Load() > 0 && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
}
