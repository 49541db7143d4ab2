package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"s3cbcd/internal/obs"
	"s3cbcd/internal/store"
)

// Engine executes query plans concurrently over a sharded keyspace. The
// split the paper's structure invites is planning vs refinement: a
// statistical or geometric plan depends only on the global curve, never on
// the record data, so it is computed once per query, and its merged curve
// intervals are then intersected with the shards' key ranges and refined
// independently — the same partition-by-curve-interval idea the
// pseudo-disk strategy (Section IV-B) applies sequentially, here applied
// across cores. Because shard boundaries are snapped to stored keys
// (store.ShardRange), the per-shard pieces of a plan partition exactly the
// records the unsharded scan would visit, so results concatenated in shard
// order are byte-identical, including order, to the single-threaded path.
//
// Two axes of parallelism compose without oversubscription: a single
// query's refinement fans out across shards, and batch searches fan out
// across queries, both drawing on the same bounded worker count with
// per-worker reusable query contexts (scratch buffers plus mass cache) so
// the hot path allocates almost nothing per query.
//
// An Engine is safe for concurrent use.
type Engine struct {
	ix      *Index
	shards  []store.ShardRange
	workers int
	qctxs   sync.Pool // *queryContext
	bufs    sync.Pool // *[]Match
	// met instruments every query: the plan/refine cost split, plan
	// selectivity, and cumulative partition-tree descent work. Always
	// updated (a few atomics per query); exported via RegisterMetrics.
	met engineMetrics
	// cache, when enabled, memoizes statistical plans keyed on (query,
	// α, model, tuning); nil when disabled. The database is static, so
	// the cache generation is constant — depth changes are covered by
	// the tuning component of the key.
	cache *planCache
	// tuner, when enabled, adapts the threshold-search tuning (and,
	// if allowed, the depth) from observed query costs; nil when
	// disabled.
	tuner *autoTuner
}

// EngineOptions configures NewEngineOpts; the zero value reproduces
// NewEngine(ix, 0, 0).
type EngineOptions struct {
	// Shards and Workers are NewEngine's parameters.
	Shards, Workers int
	// PlanCache enables the bounded statistical-plan cache (see
	// plancache.go); answers are byte-identical with it on or off.
	PlanCache bool
	// PlanCacheEntries bounds the cache; 0 selects
	// DefaultPlanCacheEntries.
	PlanCacheEntries int
	// AutoTune enables online threshold-search tuning.
	AutoTune AutoTuneOptions
}

// NewEngine builds an engine over ix with nShards key-range shards and at
// most workers concurrent goroutines per call. nShards <= 0 or 1 selects
// the degenerate single-shard layout (still valid, just sequential);
// workers <= 0 selects GOMAXPROCS. workers == 1 executes everything on
// the calling goroutine, which is the seed's single-threaded behavior.
func NewEngine(ix *Index, nShards, workers int) *Engine {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if nShards <= 0 {
		nShards = 1
	}
	e := &Engine{ix: ix, shards: ix.db.Shards(nShards), workers: workers, met: newEngineMetrics()}
	e.qctxs.New = func() any {
		return &queryContext{
			qf: make([]float64, ix.db.Dims()),
			mc: newMassCache(ix.db.Dims(), ix.curve.SideLen()),
			fs: newFrontierState(ix.curve),
		}
	}
	e.bufs.New = func() any {
		b := make([]Match, 0, 256)
		return &b
	}
	return e
}

// NewEngineShards is NewEngine with an explicit shard layout, e.g. one
// loaded from a file's shard manifest. The ranges must partition the
// database (store.DB.ShardsAt validates that).
func NewEngineShards(ix *Index, shards []store.ShardRange, workers int) *Engine {
	e := NewEngine(ix, 1, workers)
	if len(shards) > 0 {
		e.shards = shards
	}
	return e
}

// NewEngineOpts is NewEngine with the plan cache and auto-tuner knobs.
func NewEngineOpts(ix *Index, opt EngineOptions) *Engine {
	e := NewEngine(ix, opt.Shards, opt.Workers)
	if opt.PlanCache {
		e.EnablePlanCache(opt.PlanCacheEntries)
	}
	if opt.AutoTune.Enabled {
		e.EnableAutoTune(opt.AutoTune)
	}
	return e
}

// EnablePlanCache attaches a plan cache bounded to entries completed
// plans (<= 0 selects DefaultPlanCacheEntries), bucketing keys with a
// quantizer fitted to the database's own value distribution. Not safe
// to call concurrently with queries: enable before serving.
func (e *Engine) EnablePlanCache(entries int) {
	qz, err := store.FitQuantizer(e.ix.db, store.DefaultCodecBits)
	if err != nil || e.ix.db.Len() == 0 {
		// An unfittable or empty database gets evenly spaced cells; only
		// hash bucketing quality is at stake, never correctness.
		qz, _ = store.UniformQuantizer(e.ix.db.Dims(), store.DefaultCodecBits)
	}
	e.cache = newPlanCache(qz, entries)
}

// EnableAutoTune attaches the online tuner, seeded at the engine's
// current static parameters, with depth confined to the curve's valid
// range when opt.TuneDepth is set. Not safe to call concurrently with
// queries: enable before serving.
func (e *Engine) EnableAutoTune(opt AutoTuneOptions) {
	opt.Enabled = true
	e.tuner = newAutoTuner(opt, e.ix.defaultTuning(), 1, maxDepth(e.ix.curve))
}

// tuning resolves the parameters the next plan runs at: the tuner's
// published values when enabled, the static defaults otherwise.
func (e *Engine) tuning() tuning {
	if e.tuner != nil {
		return *e.tuner.current()
	}
	return e.ix.defaultTuning()
}

// PlanCacheStats reports the plan cache; false when disabled.
func (e *Engine) PlanCacheStats() (PlanCacheStats, bool) {
	if e.cache == nil {
		return PlanCacheStats{}, false
	}
	return e.cache.statsSnapshot(), true
}

// AutoTuneStats reports the online tuner; false when disabled.
func (e *Engine) AutoTuneStats() (AutoTuneStats, bool) {
	if e.tuner == nil {
		return AutoTuneStats{}, false
	}
	return e.tuner.statsSnapshot(), true
}

// Index returns the wrapped index.
func (e *Engine) Index() *Index { return e.ix }

// Shards returns the number of keyspace shards.
func (e *Engine) Shards() int { return len(e.shards) }

// Workers returns the engine's concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// queryContext is the per-worker reusable scratch state of one in-flight
// query: the widened query point, the per-dimension mass cache, and the
// frontier planner's leaf/frontier buffers. All of it is reset, not
// reallocated, between queries, keeping batch planning allocation-free.
type queryContext struct {
	qf []float64
	mc *massCache
	fs *frontierState
}

// setQuery validates q and widens it into the context's float buffer.
func (qc *queryContext) setQuery(q []byte) error {
	if len(q) != len(qc.qf) {
		return fmt.Errorf("core: query has %d components, index has %d", len(q), len(qc.qf))
	}
	for i, b := range q {
		qc.qf[i] = float64(b)
	}
	return nil
}

func (e *Engine) getCtx() *queryContext   { return e.qctxs.Get().(*queryContext) }
func (e *Engine) putCtx(qc *queryContext) { e.qctxs.Put(qc) }

// planStat computes the statistical plan for q using the context's
// scratch, consulting the plan cache when one is attached. sq must
// already be validated. On a cache hit the engine's plan-work metrics
// are untouched (no plan was computed) and the returned Intervals are
// the cache's shared immutable slice.
func (e *Engine) planStat(ctx context.Context, qc *queryContext, q []byte, sq StatQuery) (Plan, error) {
	if err := qc.setQuery(q); err != nil {
		return Plan{}, err
	}
	tn := e.tuning()
	if pc := e.cache; pc != nil {
		if planCacheBypassed(ctx) {
			pc.noteBypass()
		} else if mkey, keyable := modelPlanKey(sq.Model); keyable {
			// The database is static, so the generation component is
			// constant; tn covers depth changes.
			plan, ok := pc.plan(ctx, q, sq.Alpha, mkey, 0, tn, func() Plan {
				t0 := time.Now()
				qc.mc.reset()
				p := e.ix.planStatFrontierTuned(qc.qf, sq, qc.mc, qc.fs, tn)
				e.notePlan(ctx, p, t0)
				return p
			})
			if ok {
				return plan, nil
			}
			// ctx canceled while waiting on another caller's computation:
			// fall through and plan locally; the ctx error surfaces in
			// refinement.
		} else {
			pc.noteBypass()
		}
	}
	t0 := time.Now()
	qc.mc.reset()
	plan := e.ix.planStatFrontierTuned(qc.qf, sq, qc.mc, qc.fs, tn)
	e.notePlan(ctx, plan, t0)
	return plan, nil
}

// PlanStat computes the filtering-step plan for q without refining it,
// through the engine's pooled per-worker scratch — the statistical-query
// hot path up to (but excluding) the record scan. The returned plan's
// Intervals alias pooled buffers reused by later queries (the same
// contract as the plan SearchStat returns); copy them to retain. With
// tracing disabled this path allocates nothing once the pool is warm
// (guarded by the alloc test next to bench_plan_test.go).
func (e *Engine) PlanStat(ctx context.Context, q []byte, sq StatQuery) (Plan, error) {
	if err := sq.validate(e.ix.db.Dims()); err != nil {
		return Plan{}, err
	}
	qc := e.getCtx()
	defer e.putCtx(qc)
	qc.fs.alias = true
	plan, err := e.planStat(ctx, qc, q, sq)
	qc.fs.alias = false
	return plan, err
}

// notePlan records one computed plan into the engine metrics and, when
// the query is traced, the trace's work counters.
func (e *Engine) notePlan(ctx context.Context, plan Plan, t0 time.Time) {
	e.met.plans.Inc()
	e.met.planSeconds.ObserveSince(t0)
	e.met.planBlocks.Observe(float64(plan.Blocks))
	e.met.descentNodes.Add(int64(plan.DescentNodes))
	if tr := obs.FromContext(ctx); tr != nil {
		tr.AddDescentNodes(int64(plan.DescentNodes))
		tr.AddBlocks(int64(plan.Blocks))
	}
}

// DescentNodes returns the cumulative number of partition-tree nodes
// visited by every plan this engine has computed.
func (e *Engine) DescentNodes() int64 { return e.met.descentNodes.Value() }

// piece is the record range [lo, hi) a plan interval maps to, plus the
// offset of its first match in the final result slice (statistical
// refinement knows result sizes up front, so shards write into disjoint
// subranges of one pre-sized slice and no merge step is needed).
type piece struct {
	lo, hi, off int
}

// planPieces resolves the plan's intervals to record ranges with one
// binary search per interval — the same searches the unsharded path
// performs — and returns them with prefix offsets plus the total count.
func (e *Engine) planPieces(plan Plan) ([]piece, int) {
	db := e.ix.db
	pieces := make([]piece, 0, len(plan.Intervals))
	total := 0
	for _, iv := range plan.Intervals {
		lo, hi := db.FindInterval(iv)
		if lo < hi {
			pieces = append(pieces, piece{lo: lo, hi: hi, off: total})
			total += hi - lo
		}
	}
	return pieces, total
}

// refineParallelCutoff is the number of selected records below which a
// single query's refinement is not worth fanning out across shards. A
// variable so tests can force the parallel path on small fixtures.
var refineParallelCutoff = 4096

// refineStat scans the plan's record pieces and materializes the matches.
// With parallel set and enough work, each shard refines the intersection
// of the pieces with its record range concurrently; the output is
// identical either way.
func (e *Engine) refineStat(ctx context.Context, plan Plan, parallel bool) ([]Match, error) {
	defer e.met.refineSeconds.ObserveSince(time.Now())
	db := e.ix.db
	pieces, total := e.planPieces(plan)
	e.met.candidates.Add(int64(total))
	obs.FromContext(ctx).AddCandidates(int64(total))
	if total == 0 {
		// nil, not an empty slice: byte-identical to the sequential path.
		return nil, ctx.Err()
	}
	out := make([]Match, total)
	fill := func(lo, hi, off int) {
		for i := lo; i < hi; i++ {
			out[off+i-lo] = Match{Pos: i, ID: db.ID(i), TC: db.TC(i), X: db.X(i), Y: db.Y(i), Dist: -1}
		}
	}
	if !parallel || len(e.shards) <= 1 || e.workers <= 1 || total < refineParallelCutoff {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, p := range pieces {
			fill(p.lo, p.hi, p.off)
		}
		return out, nil
	}
	err := forEach(ctx, e.workers, len(e.shards), nil, func(_ *struct{}, s int) error {
		sh := e.shards[s]
		for _, p := range pieces {
			lo, hi := p.lo, p.hi
			if lo < sh.Lo {
				lo = sh.Lo
			}
			if hi > sh.Hi {
				hi = sh.Hi
			}
			if lo < hi {
				fill(lo, hi, p.off+lo-p.lo)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// refineRange scans the plan's record pieces keeping fingerprints within
// eps of the query. Result sizes are unknown up front, so parallel shards
// refine into pooled scratch buffers that are concatenated in shard (=
// key) order afterwards; the output is identical to the sequential scan.
func (e *Engine) refineRange(ctx context.Context, qf []float64, eps float64, plan Plan, parallel bool) ([]Match, error) {
	defer e.met.refineSeconds.ObserveSince(time.Now())
	db := e.ix.db
	epsSq := eps * eps
	pieces, total := e.planPieces(plan)
	e.met.candidates.Add(int64(total))
	obs.FromContext(ctx).AddCandidates(int64(total))
	scan := func(lo, hi int, out []Match) []Match {
		for i := lo; i < hi; i++ {
			if d := distSqToFP(qf, db.FP(i)); d <= epsSq {
				out = append(out, Match{Pos: i, ID: db.ID(i), TC: db.TC(i), X: db.X(i), Y: db.Y(i), Dist: math.Sqrt(d)})
			}
		}
		return out
	}
	if !parallel || len(e.shards) <= 1 || e.workers <= 1 || total < refineParallelCutoff {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var out []Match
		for _, p := range pieces {
			out = scan(p.lo, p.hi, out)
		}
		return out, nil
	}
	parts := make([]*[]Match, len(e.shards))
	defer func() {
		for _, b := range parts {
			if b != nil {
				*b = (*b)[:0]
				e.bufs.Put(b)
			}
		}
	}()
	err := forEach(ctx, e.workers, len(e.shards), nil, func(_ *struct{}, s int) error {
		sh := e.shards[s]
		buf := e.bufs.Get().(*[]Match)
		parts[s] = buf
		for _, p := range pieces {
			lo, hi := p.lo, p.hi
			if lo < sh.Lo {
				lo = sh.Lo
			}
			if hi > sh.Hi {
				hi = sh.Hi
			}
			if lo < hi {
				*buf = scan(lo, hi, *buf)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	n := 0
	for _, b := range parts {
		n += len(*b)
	}
	if n == 0 {
		// nil, not an empty slice: byte-identical to the sequential path.
		return nil, nil
	}
	out := make([]Match, 0, n)
	for _, b := range parts {
		out = append(out, *b...)
	}
	return out, nil
}

// SearchStat executes a complete statistical query through the engine:
// one plan against the global curve, refinement fanned out across shards.
// Results are byte-identical to Index.SearchStat.
func (e *Engine) SearchStat(ctx context.Context, q []byte, sq StatQuery) ([]Match, Plan, error) {
	if err := sq.validate(e.ix.db.Dims()); err != nil {
		return nil, Plan{}, err
	}
	e.met.statQueries.Inc()
	e.met.inflight.Add(1)
	defer e.met.inflight.Add(-1)
	tr := obs.FromContext(ctx)
	qc := e.getCtx()
	defer e.putCtx(qc)
	t0 := time.Now()
	plan, err := e.planStat(ctx, qc, q, sq)
	if err != nil {
		return nil, Plan{}, err
	}
	if tr != nil {
		id := tr.StageSince("plan", t0)
		tr.Annotate(id, "blocks", strconv.Itoa(plan.Blocks))
		tr.Annotate(id, "descentNodes", strconv.Itoa(plan.DescentNodes))
	}
	t1 := time.Now()
	matches, err := e.refineStat(ctx, plan, true)
	if err != nil {
		return nil, Plan{}, err
	}
	if tr != nil {
		id := tr.StageSince("refine", t1)
		tr.Annotate(id, "candidates", strconv.Itoa(len(matches)))
		tr.Annotate(id, "shards", strconv.Itoa(len(e.shards)))
	}
	tr.AddSegments(int64(len(e.shards)))
	if e.tuner != nil {
		e.tuner.observe(t1.Sub(t0), time.Since(t1))
	}
	return matches, plan, nil
}

// SearchRange executes a complete ε-range query through the engine.
// Results are byte-identical to Index.SearchRange.
func (e *Engine) SearchRange(ctx context.Context, q []byte, eps float64) ([]Match, Plan, error) {
	if eps < 0 {
		return nil, Plan{}, fmt.Errorf("core: negative range radius %v", eps)
	}
	e.met.rangeQueries.Inc()
	e.met.inflight.Add(1)
	defer e.met.inflight.Add(-1)
	tr := obs.FromContext(ctx)
	qc := e.getCtx()
	defer e.putCtx(qc)
	if err := qc.setQuery(q); err != nil {
		return nil, Plan{}, err
	}
	t0 := time.Now()
	plan := e.ix.planRangeFloat(qc.qf, eps)
	e.notePlan(ctx, plan, t0)
	if tr != nil {
		id := tr.StageSince("plan", t0)
		tr.Annotate(id, "blocks", strconv.Itoa(plan.Blocks))
		tr.Annotate(id, "descentNodes", strconv.Itoa(plan.DescentNodes))
	}
	t1 := time.Now()
	matches, err := e.refineRange(ctx, qc.qf, eps, plan, true)
	if err != nil {
		return nil, Plan{}, err
	}
	if tr != nil {
		id := tr.StageSince("refine", t1)
		tr.Annotate(id, "matches", strconv.Itoa(len(matches)))
		tr.Annotate(id, "shards", strconv.Itoa(len(e.shards)))
	}
	tr.AddSegments(int64(len(e.shards)))
	return matches, plan, nil
}

// SearchKNN answers a k-nearest-neighbor query. The best-first traversal
// is inherently sequential (each expansion depends on the current k-th
// distance), so a single k-NN query is not sharded; batches parallelize
// across queries instead (SearchKNNBatch).
func (e *Engine) SearchKNN(ctx context.Context, q []byte, k, maxLeaves int) ([]Match, KNNStats, error) {
	if err := ctx.Err(); err != nil {
		return nil, KNNStats{}, err
	}
	e.met.knnQueries.Inc()
	e.met.inflight.Add(1)
	defer e.met.inflight.Add(-1)
	t0 := time.Now()
	m, st, err := searchKNNSource(ctx, e.ix.curve, e.ix.depth, e.ix.db, q, k, maxLeaves, nil)
	if err != nil {
		return nil, KNNStats{}, err
	}
	e.met.candidates.Add(int64(st.Scanned))
	if tr := obs.FromContext(ctx); tr != nil {
		tr.StageSince("knn", t0)
		tr.AddCandidates(int64(st.Scanned))
	}
	return m, st, nil
}

// SearchStatBatch pipelines many statistical queries across the worker
// pool (the batching of eq. 5, executed in parallel): each worker plans
// and refines whole queries with its own reusable context. results[i]
// corresponds to queries[i] and equals the sequential Index.SearchStat
// output for that query.
func (e *Engine) SearchStatBatch(ctx context.Context, queries [][]byte, sq StatQuery) ([][]Match, error) {
	if err := sq.validate(e.ix.db.Dims()); err != nil {
		return nil, err
	}
	e.met.statQueries.Add(int64(len(queries)))
	e.met.batchQueries.Add(int64(len(queries)))
	e.met.inflight.Add(1)
	defer e.met.inflight.Add(-1)
	results := make([][]Match, len(queries))
	err := forEach(ctx, e.workers, len(queries), e.getCtx, func(qc *queryContext, i int) error {
		t0 := time.Now()
		plan, err := e.planStat(ctx, qc, queries[i], sq)
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		t1 := time.Now()
		matches, err := e.refineStat(ctx, plan, false)
		if err != nil {
			return err
		}
		if e.tuner != nil {
			e.tuner.observe(t1.Sub(t0), time.Since(t1))
		}
		results[i] = matches
		return nil
	}, e.putCtx)
	if err != nil {
		return nil, err
	}
	return results, nil
}

// SearchRangeBatch is SearchStatBatch for ε-range queries.
func (e *Engine) SearchRangeBatch(ctx context.Context, queries [][]byte, eps float64) ([][]Match, error) {
	if eps < 0 {
		return nil, fmt.Errorf("core: negative range radius %v", eps)
	}
	e.met.rangeQueries.Add(int64(len(queries)))
	e.met.batchQueries.Add(int64(len(queries)))
	e.met.inflight.Add(1)
	defer e.met.inflight.Add(-1)
	results := make([][]Match, len(queries))
	err := forEach(ctx, e.workers, len(queries), e.getCtx, func(qc *queryContext, i int) error {
		if err := qc.setQuery(queries[i]); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		t0 := time.Now()
		plan := e.ix.planRangeFloat(qc.qf, eps)
		e.notePlan(ctx, plan, t0)
		matches, err := e.refineRange(ctx, qc.qf, eps, plan, false)
		if err != nil {
			return err
		}
		results[i] = matches
		return nil
	}, e.putCtx)
	if err != nil {
		return nil, err
	}
	return results, nil
}

// SearchKNNBatch answers many k-NN queries in parallel, one worker per
// query.
func (e *Engine) SearchKNNBatch(ctx context.Context, queries [][]byte, k, maxLeaves int) ([][]Match, []KNNStats, error) {
	e.met.knnQueries.Add(int64(len(queries)))
	e.met.batchQueries.Add(int64(len(queries)))
	e.met.inflight.Add(1)
	defer e.met.inflight.Add(-1)
	results := make([][]Match, len(queries))
	stats := make([]KNNStats, len(queries))
	err := forEach(ctx, e.workers, len(queries), nil, func(_ *struct{}, i int) error {
		m, st, err := searchKNNSource(ctx, e.ix.curve, e.ix.depth, e.ix.db, queries[i], k, maxLeaves, nil)
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		e.met.candidates.Add(int64(st.Scanned))
		obs.FromContext(ctx).AddCandidates(int64(st.Scanned))
		results[i], stats[i] = m, st
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return results, stats, nil
}

// forEach runs fn(state, i) for every i in [0, n) on up to workers
// goroutines. Each goroutine draws its own state from mk once (nil mk
// passes nil state) and returns it through put when done. The first error
// cancels remaining iterations; a canceled ctx does the same and is
// reported. With workers <= 1 everything runs on the calling goroutine,
// preserving strict iteration order.
func forEach[S any](ctx context.Context, workers, n int, mk func() S, fn func(S, int) error, put ...func(S)) error {
	release := func(S) {}
	if len(put) > 0 {
		release = put[0]
	}
	acquire := func() (s S) {
		if mk != nil {
			s = mk()
		}
		return s
	}
	if n == 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		s := acquire()
		defer release(s)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(s, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		mu       sync.Mutex
		firstErr error
		stop     atomic.Bool
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := acquire()
			defer release(s)
			for !stop.Load() {
				if err := ctx.Err(); err != nil {
					fail(err)
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := fn(s, i); err != nil {
					fail(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	return firstErr
}
