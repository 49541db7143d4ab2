package core

import (
	"context"
	"runtime"

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
// An Engine is a static snapshot with one resident segment (the index's
// database, carrying the shard layout) at generation 0, served by the
// same executor (executor.go) as the LiveIndex. Two axes of parallelism
// compose without oversubscription: a single query's refinement fans
// out across shards, and batch searches fan out across queries, both
// drawing on the same bounded worker count with per-worker reusable
// query contexts (scratch buffers plus mass cache) so the hot path
// allocates almost nothing per query.
//
// An Engine is safe for concurrent use.
type Engine struct {
	executor
	ix   *Index
	snap *snapshot
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
	e := &Engine{executor: newExecutor(&ix.planner, workers), ix: ix,
		snap: &snapshot{segs: []*segment{{db: ix.db, shards: ix.db.Shards(nShards)}}}}
	e.fit = ix.db
	return e
}

// NewEngineShards is NewEngine with an explicit shard layout, e.g. one
// loaded from a file's shard manifest. The ranges must partition the
// database (store.DB.ShardsAt validates that).
func NewEngineShards(ix *Index, shards []store.ShardRange, workers int) *Engine {
	e := NewEngine(ix, 1, workers)
	if len(shards) > 0 {
		e.snap.segs[0].shards = shards
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
func (e *Engine) EnablePlanCache(entries int) { e.enablePlanCache(entries) }

// EnableAutoTune attaches the online tuner, seeded at the engine's
// current static parameters, with depth confined to the curve's valid
// range when opt.TuneDepth is set. Not safe to call concurrently with
// queries: enable before serving.
func (e *Engine) EnableAutoTune(opt AutoTuneOptions) { e.enableAutoTune(opt) }

// Index returns the wrapped index.
func (e *Engine) Index() *Index { return e.ix }

// Shards returns the number of keyspace shards.
func (e *Engine) Shards() int { return len(e.snap.segs[0].shards) }

// Workers returns the engine's concurrency bound.
func (e *Engine) Workers() int { return e.workers }

// PlanStat computes the filtering-step plan for q without refining it,
// through the executor's pooled per-worker scratch — the statistical-query
// hot path up to (but excluding) the record scan. The returned plan's
// Intervals alias pooled buffers reused by later queries; copy them to
// retain. With tracing disabled this path allocates nothing once the
// pool is warm (guarded by the alloc test next to bench_plan_test.go).
func (e *Engine) PlanStat(ctx context.Context, q []byte, sq StatQuery) (Plan, error) {
	if err := sq.validate(e.pl.dims()); err != nil {
		return Plan{}, err
	}
	qc := e.pl.getCtx()
	defer e.pl.putCtx(qc)
	if err := qc.setQuery(q); err != nil {
		return Plan{}, err
	}
	qc.fs.alias = true
	plan := e.statPlan(ctx, qc, q, sq, e.snap.gen)
	qc.fs.alias = false
	return plan, nil
}

// DescentNodes returns the cumulative number of partition-tree nodes
// visited by every plan this engine has computed.
func (e *Engine) DescentNodes() int64 { return e.met.descentNodes.Value() }

// SearchStat executes a complete statistical query through the engine:
// one plan against the global curve, refinement fanned out across shards.
// Results are byte-identical to Index.SearchStat.
func (e *Engine) SearchStat(ctx context.Context, q []byte, sq StatQuery) ([]Match, Plan, error) {
	return e.search(ctx, e.snap, q, &planned{sq: sq})
}

// SearchRange executes a complete ε-range query through the engine.
// Results are byte-identical to Index.SearchRange.
func (e *Engine) SearchRange(ctx context.Context, q []byte, eps float64) ([]Match, Plan, error) {
	return e.search(ctx, e.snap, q, &planned{geo: true, eps: eps})
}

// SearchKNN answers a k-nearest-neighbor query, byte-identical to
// Index.SearchKNN. A single k-NN query is not sharded; batches
// parallelize across queries instead (SearchKNNBatch).
func (e *Engine) SearchKNN(ctx context.Context, q []byte, k, maxLeaves int) ([]Match, KNNStats, error) {
	return e.searchKNN(ctx, e.snap, q, k, maxLeaves)
}

// SearchStatBatch pipelines many statistical queries across the worker
// pool (the batching of eq. 5, executed in parallel): each worker plans
// and refines whole queries with its own reusable context. results[i]
// corresponds to queries[i] and equals the sequential Index.SearchStat
// output for that query.
func (e *Engine) SearchStatBatch(ctx context.Context, queries [][]byte, sq StatQuery) ([][]Match, error) {
	return e.searchBatch(ctx, e.snap, queries, &planned{sq: sq})
}

// SearchRangeBatch is SearchStatBatch for ε-range queries.
func (e *Engine) SearchRangeBatch(ctx context.Context, queries [][]byte, eps float64) ([][]Match, error) {
	return e.searchBatch(ctx, e.snap, queries, &planned{geo: true, eps: eps})
}

// SearchKNNBatch answers many k-NN queries in parallel, one worker per
// query.
func (e *Engine) SearchKNNBatch(ctx context.Context, queries [][]byte, k, maxLeaves int) ([][]Match, []KNNStats, error) {
	return e.searchKNNBatch(ctx, e.snap, queries, k, maxLeaves)
}
