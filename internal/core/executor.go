package core

// The snapshot executor: the one query path behind both the static
// Engine and the LiveIndex. A plan (statistical or geometric) depends
// only on the curve geometry and the partition depth, never on the
// record data (Section IV-B), so one plan per query is refined against
// whatever record sources a snapshot holds:
//
//   - a static Engine is a snapshot with one resident segment — its
//     store.DB, split into key-range shards for parallel refinement —
//     at generation 0;
//   - a LiveIndex publishes snapshots of curve-ordered segments
//     (resident or cold, sketched, tombstone-masked) whose generation
//     grows with every write.
//
// The executor owns everything between the query and its answer: the
// pooled per-worker query context, statistical planning through the
// plan cache and the auto-tuner, the plan metrics and trace counters,
// refinement through the RecordSource seam (refine.go), the canonical
// merge across segments and the batch fan-out.

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"s3cbcd/internal/bitkey"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/obs"
	"s3cbcd/internal/store"
)

// Searcher is the query surface shared by the static Engine and the
// LiveIndex, letting serving layers (httpapi, cbcd.Detector) run over
// either a frozen archive or a growing one.
type Searcher interface {
	SearchStat(ctx context.Context, q []byte, sq StatQuery) ([]Match, Plan, error)
	SearchRange(ctx context.Context, q []byte, eps float64) ([]Match, Plan, error)
	SearchKNN(ctx context.Context, q []byte, k, maxLeaves int) ([]Match, KNNStats, error)
	SearchStatBatch(ctx context.Context, queries [][]byte, sq StatQuery) ([][]Match, error)
}

var (
	_ Searcher = (*Engine)(nil)
	_ Searcher = (*LiveIndex)(nil)
)

// segment is one immutable record source of a snapshot: a
// curve-ordered record set plus the tombstone mask hiding deleted
// videos. Exactly one of db (resident) and cold (disk-backed through
// the block cache) is set. Segments are never mutated — tombstone
// growth replaces the struct (copy-on-write), so a loaded snapshot
// stays coherent forever.
type segment struct {
	db   *store.DB           // resident records; nil when cold
	cold *store.ColdFile     // cold-tier records; nil when resident
	name string              // manifest file name; "" for the memtable
	tomb map[uint32]struct{} // masked video ids; nil or empty for none
	live int                 // records not masked
	// sketch is the segment's occupancy summary, consulted before
	// refinement to skip the whole segment; nil when sketches are off (or
	// for the mutable memtable, which is never summarized).
	sketch *store.Sketch
	// shards split a resident segment into key-range pieces that one
	// query's refinement may scan concurrently (a static Engine's
	// layout); nil refines the segment as one piece.
	shards []store.ShardRange
}

func (s *segment) masked(id uint32) bool {
	_, dead := s.tomb[id]
	return dead
}

// maskFn returns the tombstone predicate refinement filters with, nil
// when the segment has no tombstones.
func (s *segment) maskFn() func(uint32) bool {
	if len(s.tomb) == 0 {
		return nil
	}
	tomb := s.tomb
	return func(id uint32) bool {
		_, dead := tomb[id]
		return dead
	}
}

// source returns the seam refinement visits the segment's records
// through.
func (s *segment) source() store.RecordSource {
	if s.cold != nil {
		return s.cold
	}
	return s.db
}

// records returns the segment's stored record count (masked included).
func (s *segment) records() int {
	if s.cold != nil {
		return s.cold.Len()
	}
	return s.db.Len()
}

// selected counts the records of a resident segment the intervals
// cover, with the binary searches refinement itself performs.
func (s *segment) selected(ivs []hilbert.Interval) int {
	n := 0
	for _, iv := range ivs {
		lo, hi := s.db.FindInterval(iv)
		n += hi - lo
	}
	return n
}

// snapshot is one immutable view of an index: segments (oldest first)
// plus the memtable, which a static Engine does not have (mem nil).
// Readers obtain a live index's snapshot with a single atomic load;
// writers publish a successor with a strictly larger generation.
type snapshot struct {
	gen  uint64
	segs []*segment
	mem  *segment
}

// all returns every segment a query visits: the segments, then the
// memtable when it holds records. The result must not be modified.
func (s *snapshot) all() []*segment {
	if s.mem == nil || s.mem.db.Len() == 0 {
		return s.segs
	}
	out := make([]*segment, 0, len(s.segs)+1)
	out = append(out, s.segs...)
	return append(out, s.mem)
}

// queryContext is the per-worker reusable state of one in-flight query:
// the widened query point, the per-dimension mass cache, and the
// frontier planner's buffers. All of it is reset, not reallocated,
// between queries.
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

// getCtx borrows a query context from the planner's pool, building one
// on a miss — the one constructor every planning path draws from.
func (pl *planner) getCtx() *queryContext {
	if v := pl.ctxs.Get(); v != nil {
		return v.(*queryContext)
	}
	return &queryContext{
		qf: make([]float64, pl.dims()),
		mc: newMassCache(pl.dims(), pl.curve.SideLen()),
		fs: newFrontierState(pl.curve),
	}
}

// putCtx returns a query context to the pool.
func (pl *planner) putCtx(qc *queryContext) { pl.ctxs.Put(qc) }

// executor runs queries against snapshots. Engine and LiveIndex embed
// it; they differ only in the snapshots they hand it and the options
// they attach. Safe for concurrent use once configured.
type executor struct {
	pl      *planner
	workers int
	// met instruments every query: the plan/refine cost split, plan
	// selectivity, and cumulative partition-tree descent work. Always
	// updated (a few atomics per query); exported via RegisterMetrics.
	met engineMetrics
	// seg are the s3_live_* instruments a segmented snapshot moves; all
	// nil (silent) on a static engine.
	seg segmentMetrics
	// cache, when enabled, memoizes statistical plans keyed on (query,
	// α, model, tuning, snapshot generation); nil when disabled.
	cache *planCache
	// tuner, when enabled, adapts the threshold-search tuning (and, on
	// a static engine that allows it, the depth) from observed query
	// costs; nil when disabled.
	tuner *autoTuner
	// fit is the static record set the plan cache fits its key
	// quantizer to; nil (a live index, whose records churn) selects
	// value-only uniform cells, comparable across snapshots.
	fit *store.DB
	// pinDepth keeps the tuner off the partition depth: a live index's
	// segment sketches are built at the shared depth, and plans at any
	// other depth could not consult them.
	pinDepth bool
}

func newExecutor(pl *planner, workers int) executor {
	return executor{pl: pl, workers: workers, met: newEngineMetrics()}
}

// enablePlanCache attaches a plan cache bounded to entries completed
// plans (<= 0 selects DefaultPlanCacheEntries). Not safe to call
// concurrently with queries: enable before serving.
func (x *executor) enablePlanCache(entries int) {
	var qz *store.Quantizer
	if x.fit != nil && x.fit.Len() > 0 {
		// An unfittable database falls back to evenly spaced cells; only
		// hash bucketing quality is at stake, never correctness.
		qz, _ = store.FitQuantizer(x.fit, store.DefaultCodecBits)
	}
	if qz == nil {
		qz, _ = store.UniformQuantizer(x.pl.dims(), store.DefaultCodecBits)
	}
	x.cache = newPlanCache(qz, entries)
}

// enableAutoTune attaches the online tuner, seeded at the current
// static parameters, with depth confined to the curve's valid range
// when opt.TuneDepth is set and the depth is not pinned. Not safe to
// call concurrently with queries: enable before serving.
func (x *executor) enableAutoTune(opt AutoTuneOptions) {
	opt.Enabled = true
	lo, hi := 1, maxDepth(x.pl.curve)
	if x.pinDepth {
		opt.TuneDepth = false
		lo, hi = x.pl.depth, x.pl.depth
	}
	x.tuner = newAutoTuner(opt, x.pl.defaultTuning(), lo, hi)
}

// tuning resolves the parameters the next plan runs at: the tuner's
// published values when enabled, the static defaults otherwise.
func (x *executor) tuning() tuning {
	if x.tuner != nil {
		return *x.tuner.current()
	}
	return x.pl.defaultTuning()
}

// PlanCacheStats reports the plan cache; false when disabled.
func (x *executor) PlanCacheStats() (PlanCacheStats, bool) {
	if x.cache == nil {
		return PlanCacheStats{}, false
	}
	return x.cache.statsSnapshot(), true
}

// AutoTuneStats reports the online tuner; false when disabled.
func (x *executor) AutoTuneStats() (AutoTuneStats, bool) {
	if x.tuner == nil {
		return AutoTuneStats{}, false
	}
	return x.tuner.statsSnapshot(), true
}

// statPlan computes the statistical plan for the query held in qc (q
// is its byte form), serving it from the plan cache when one is
// attached. gen keys the cache — 0 for a static engine, the snapshot
// generation for a live index — so a plan cached before any ingest,
// delete or compaction can never be returned afterwards. On a cache hit
// the plan metrics and trace counters are untouched (no plan was
// computed) and the Intervals are the cache's shared immutable slice.
func (x *executor) statPlan(ctx context.Context, qc *queryContext, q []byte, sq StatQuery, gen uint64) Plan {
	tn := x.tuning()
	if pc := x.cache; pc != nil {
		if planCacheBypassed(ctx) {
			pc.noteBypass()
		} else if mkey, keyable := modelPlanKey(sq.Model); keyable {
			if plan, ok := pc.plan(ctx, q, sq.Alpha, mkey, gen, tn, func() Plan {
				return x.computeStat(ctx, qc, sq, tn)
			}); ok {
				return plan
			}
			// ctx canceled while waiting on another caller's computation:
			// plan locally; the ctx error surfaces in refinement.
		} else {
			pc.noteBypass()
		}
	}
	return x.computeStat(ctx, qc, sq, tn)
}

// computeStat runs the frontier threshold search on the context's
// scratch at tuning tn.
func (x *executor) computeStat(ctx context.Context, qc *queryContext, sq StatQuery, tn tuning) Plan {
	t0 := time.Now()
	qc.mc.reset()
	plan := x.pl.planStatFrontierTuned(qc.qf, sq, qc.mc, qc.fs, tn)
	x.notePlan(ctx, plan, t0)
	return plan
}

// planRange computes the geometric plan for the query held in qc.
func (x *executor) planRange(ctx context.Context, qc *queryContext, eps float64) Plan {
	t0 := time.Now()
	plan := x.pl.planRangeFloat(qc.qf, eps)
	x.notePlan(ctx, plan, t0)
	return plan
}

// notePlan records one computed plan into the metrics and, when the
// query is traced, the trace's work counters.
func (x *executor) notePlan(ctx context.Context, plan Plan, t0 time.Time) {
	x.met.plans.Inc()
	x.met.planSeconds.ObserveSince(t0)
	x.met.planBlocks.Observe(float64(plan.Blocks))
	x.met.descentNodes.Add(int64(plan.DescentNodes))
	if tr := obs.FromContext(ctx); tr != nil {
		tr.AddDescentNodes(int64(plan.DescentNodes))
		tr.AddBlocks(int64(plan.Blocks))
	}
}

// admit counts n queries of one kind against a snapshot of segs
// segments and marks the call in flight; the caller defers
// x.met.inflight.Add(-1).
func (x *executor) admit(kind *obs.Counter, n int, batch bool, segs int) {
	kind.Add(int64(n))
	x.seg.queries.Add(int64(n))
	if batch {
		x.met.batchQueries.Add(int64(n))
	} else {
		x.seg.querySegments.Observe(float64(segs))
	}
	x.met.inflight.Add(1)
}

// refineSpec says what one refinement keeps: every unmasked record of
// the plan's intervals (statistical: the region is the answer), or,
// when geo is set, those within eps of qf.
type refineSpec struct {
	plan Plan
	geo  bool
	qf   []float64
	eps  float64
}

// refineStats is what one refinement did, for the trace.
type refineStats struct {
	scanned int // records refinement examined, masked ones included
	skipped int // segments a sketch proved hold no answer
	pieces  int // record ranges refined: one per segment, one per shard
}

// refineParallelCutoff is the number of selected records below which a
// single query's refinement is not worth fanning out across shards. A
// variable so tests can force the parallel path on small fixtures.
var refineParallelCutoff = 4096

// refine runs the refinement step of one plan against every segment of
// snap, checking ctx before each segment. A one-segment snapshot (every
// static engine, a live index holding only its memtable) refines
// straight into its result slice: no keys, no merge copy. Several
// segments refine keyed and merge canonically. nil (not an empty slice)
// means no match, on every path.
func (x *executor) refine(ctx context.Context, snap *snapshot, rs *refineSpec, parallel bool) ([]Match, refineStats, error) {
	defer x.met.refineSeconds.ObserveSince(time.Now())
	segs := snap.all()
	var st refineStats
	keyed := len(segs) > 1
	var sinks []matchSink
	if keyed {
		sinks = make([]matchSink, len(segs))
	}
	var one matchSink
	for i, s := range segs {
		st.pieces += max(1, len(s.shards))
		if err := ctx.Err(); err != nil {
			return nil, st, err
		}
		if x.skip(s, rs) {
			st.skipped++
			continue
		}
		sk := &one
		if keyed {
			sk = &sinks[i]
			sk.keyed = true
		}
		if err := x.refineSegment(ctx, s, rs, parallel, sk); err != nil {
			return nil, st, err
		}
		st.scanned += sk.scanned
	}
	x.met.candidates.Add(int64(st.scanned))
	tr := obs.FromContext(ctx)
	tr.AddCandidates(int64(st.scanned))
	tr.AddSegments(int64(st.pieces))
	if keyed {
		return mergeCanonical(sinks), st, nil
	}
	return one.ms, st, nil
}

// skip reports whether the segment's sketch proves it holds no answer,
// counting the consultation. The component envelope bounds the distance
// to every record from below (a box further than eps holds no range
// match) and the occupancy filter proves curve non-intersection; both
// are one-sided, so a skip cannot change the answer. A segment without
// a sketch (the memtable, a static engine's, sketches off) never skips.
func (x *executor) skip(s *segment, rs *refineSpec) bool {
	if s.sketch == nil {
		return false
	}
	x.seg.sketchConsults.Inc()
	if (rs.geo && s.sketch.EnvelopeMinDistSq(rs.qf) > rs.eps*rs.eps) || !s.sketch.MayIntersect(rs.plan.Intervals) {
		x.seg.segmentsSkipped.Inc()
		return true
	}
	return false
}

// refineSegment refines one segment into sk. A resident segment split
// into key-range shards refines them concurrently when parallel is set,
// the executor has workers to spare and the plan selects at least
// refineParallelCutoff of its records. Shard boundaries are snapped to
// stored keys (store.ShardRange), so the clipped pieces partition
// exactly the records the whole-segment scan visits, and concatenating
// them in shard (= key) order reproduces it byte for byte.
func (x *executor) refineSegment(ctx context.Context, s *segment, rs *refineSpec, parallel bool, sk *matchSink) error {
	ivs := rs.plan.Intervals
	if !parallel || len(s.shards) <= 1 || x.workers <= 1 || s.selected(ivs) < refineParallelCutoff {
		return visitSegment(s, ivs, rs, sk)
	}
	parts := make([]matchSink, len(s.shards))
	err := forEach(ctx, x.workers, len(s.shards), nil, func(_ *struct{}, i int) error {
		parts[i].keyed = sk.keyed
		return visitSegment(s, clipIntervals(ivs, s.shards[i]), rs, &parts[i])
	})
	if err != nil {
		return err
	}
	for i := range parts {
		sk.ms = append(sk.ms, parts[i].ms...)
		sk.keys = append(sk.keys, parts[i].keys...)
		sk.scanned += parts[i].scanned
	}
	return nil
}

// visitSegment refines the segment's records in ivs into sk.
func visitSegment(s *segment, ivs []hilbert.Interval, rs *refineSpec, sk *matchSink) error {
	var err error
	if rs.geo {
		err = rangeMatchesSource(s.source(), rs.qf, rs.eps, s.maskFn(), ivs, sk)
	} else {
		err = statMatchesSource(s.source(), s.maskFn(), ivs, sk)
	}
	if err != nil {
		return fmt.Errorf("core: refine of segment %s: %w", s.name, err)
	}
	return nil
}

// clipIntervals returns the parts of the sorted intervals ivs inside
// the shard's key range [Start, End).
func clipIntervals(ivs []hilbert.Interval, sh store.ShardRange) []hilbert.Interval {
	var out []hilbert.Interval
	for _, iv := range ivs {
		if iv.End.Cmp(sh.Start) <= 0 {
			continue
		}
		if !iv.Start.Less(sh.End) {
			break
		}
		if iv.Start.Less(sh.Start) {
			iv.Start = sh.Start
		}
		if sh.End.Less(iv.End) {
			iv.End = sh.End
		}
		out = append(out, iv)
	}
	return out
}

// matchSink accumulates the matches one segment (or shard) refines.
// keys, filled only when keyed, parallels ms for the canonical merge
// across segments.
type matchSink struct {
	ms      []Match
	keys    []bitkey.Key
	keyed   bool
	scanned int
}

func (sk *matchSink) add(rv store.RecordView, dist float64) {
	sk.ms = append(sk.ms, Match{Pos: rv.Pos, ID: rv.ID, TC: rv.TC, X: rv.X, Y: rv.Y, Dist: dist})
	if sk.keyed {
		sk.keys = append(sk.keys, rv.Key)
	}
}

// canonicalLess is the canonical result order between match i of a and
// match j of b: key, then ID, TC, X, Y — the same total order
// store.Build lays records out in, which is what makes merged live
// results identical to a monolithic index's scan.
func canonicalLess(a *matchSink, i int, b *matchSink, j int) bool {
	if c := a.keys[i].Cmp(b.keys[j]); c != 0 {
		return c < 0
	}
	ma, mb := &a.ms[i], &b.ms[j]
	if ma.ID != mb.ID {
		return ma.ID < mb.ID
	}
	if ma.TC != mb.TC {
		return ma.TC < mb.TC
	}
	if ma.X != mb.X {
		return ma.X < mb.X
	}
	return ma.Y < mb.Y
}

// mergeCanonical k-way merges keyed per-segment match lists (each
// already canonically ordered) into one canonically ordered result, nil
// for no matches.
func mergeCanonical(lists []matchSink) []Match {
	total := 0
	for i := range lists {
		total += len(lists[i].ms)
	}
	if total == 0 {
		return nil
	}
	out := make([]Match, 0, total)
	idx := make([]int, len(lists))
	for len(out) < total {
		best := -1
		for l := range lists {
			if idx[l] >= len(lists[l].ms) {
				continue
			}
			if best == -1 || canonicalLess(&lists[l], idx[l], &lists[best], idx[best]) {
				best = l
			}
		}
		out = append(out, lists[best].ms[idx[best]])
		idx[best]++
	}
	return out
}

// tracePlan closes a single query's plan stage on tr.
func tracePlan(tr *obs.Trace, t0 time.Time, plan Plan) {
	if tr == nil {
		return
	}
	id := tr.StageSince("plan", t0)
	tr.Annotate(id, "blocks", strconv.Itoa(plan.Blocks))
	tr.Annotate(id, "descentNodes", strconv.Itoa(plan.DescentNodes))
}

// traceRefine closes a single query's refine stage on tr.
func traceRefine(tr *obs.Trace, t1 time.Time, matches int, st refineStats) {
	if tr == nil {
		return
	}
	id := tr.StageSince("refine", t1)
	tr.Annotate(id, "candidates", strconv.Itoa(st.scanned))
	tr.Annotate(id, "matches", strconv.Itoa(matches))
	tr.Annotate(id, "segments", strconv.Itoa(st.pieces))
	tr.Annotate(id, "segmentsSkipped", strconv.Itoa(st.skipped))
}

// planned parameterizes the planned query kinds: statistical under sq,
// or, when geo is set, geometric within eps of the query point.
type planned struct {
	geo bool
	sq  StatQuery
	eps float64
}

func (pq *planned) validate(dims int) error {
	if pq.geo {
		if pq.eps < 0 {
			return fmt.Errorf("core: negative range radius %v", pq.eps)
		}
		return nil
	}
	return pq.sq.validate(dims)
}

// counter returns the query-kind counter pq counts into.
func (x *executor) counter(pq *planned) *obs.Counter {
	if pq.geo {
		return x.met.rangeQueries
	}
	return x.met.statQueries
}

// search executes one planned query against snap: one plan against the
// shared curve, refined across every segment (and shard).
func (x *executor) search(ctx context.Context, snap *snapshot, q []byte, pq *planned) ([]Match, Plan, error) {
	if err := pq.validate(x.pl.dims()); err != nil {
		return nil, Plan{}, err
	}
	qc := x.pl.getCtx()
	defer x.pl.putCtx(qc)
	if err := qc.setQuery(q); err != nil {
		return nil, Plan{}, err
	}
	if err := ctx.Err(); err != nil {
		return nil, Plan{}, err
	}
	x.admit(x.counter(pq), 1, false, len(snap.all()))
	defer x.met.inflight.Add(-1)
	return x.planRefine(ctx, qc, snap, q, pq, true, obs.FromContext(ctx))
}

// planRefine plans the query held in qc (q is its byte form) and refines
// the plan against snap, closing plan and refine stages on tr when set
// (single queries; a batch passes nil) and feeding statistical costs to
// the tuner.
func (x *executor) planRefine(ctx context.Context, qc *queryContext, snap *snapshot, q []byte, pq *planned, parallel bool, tr *obs.Trace) ([]Match, Plan, error) {
	t0 := time.Now()
	var plan Plan
	if pq.geo {
		plan = x.planRange(ctx, qc, pq.eps)
	} else {
		plan = x.statPlan(ctx, qc, q, pq.sq, snap.gen)
	}
	tracePlan(tr, t0, plan)
	t1 := time.Now()
	ms, st, err := x.refine(ctx, snap, &refineSpec{plan: plan, geo: pq.geo, qf: qc.qf, eps: pq.eps}, parallel)
	if err != nil {
		return nil, Plan{}, err
	}
	traceRefine(tr, t1, len(ms), st)
	if x.tuner != nil && !pq.geo {
		x.tuner.observe(t1.Sub(t0), time.Since(t1))
	}
	return ms, plan, nil
}

// searchKNN answers a k-NN query against snap. The best-first traversal
// is inherently sequential (each expansion depends on the current k-th
// distance), so it runs per segment, never per shard; a one-segment
// snapshot returns its traversal as is (byte-identical to
// Index.SearchKNN), several merge by distance.
func (x *executor) searchKNN(ctx context.Context, snap *snapshot, q []byte, k, maxLeaves int) ([]Match, KNNStats, error) {
	if err := x.checkKNN(q, k); err != nil {
		return nil, KNNStats{}, err
	}
	if err := ctx.Err(); err != nil {
		return nil, KNNStats{}, err
	}
	segs := snap.all()
	x.admit(x.met.knnQueries, 1, false, len(segs))
	defer x.met.inflight.Add(-1)
	t0 := time.Now()
	ms, st, err := x.knn(ctx, segs, q, k, maxLeaves)
	if err != nil {
		return nil, KNNStats{}, err
	}
	if tr := obs.FromContext(ctx); tr != nil {
		tr.StageSince("knn", t0)
		tr.AddSegments(int64(len(segs)))
	}
	return ms, st, nil
}

// checkKNN validates a k-NN query's arguments.
func (x *executor) checkKNN(q []byte, k int) error {
	if k < 1 {
		return fmt.Errorf("core: k = %d must be >= 1", k)
	}
	if len(q) != x.pl.dims() {
		return fmt.Errorf("core: query has %d components, index has %d", len(q), x.pl.dims())
	}
	return nil
}

// knn is searchKNN's traversal and merge, counting the records scanned.
// Ties at equal distance across segments order by (ID, TC, X, Y).
func (x *executor) knn(ctx context.Context, segs []*segment, q []byte, k, maxLeaves int) ([]Match, KNNStats, error) {
	var (
		all   []Match
		stats = KNNStats{Exact: true}
	)
	for _, s := range segs {
		if err := ctx.Err(); err != nil {
			return nil, KNNStats{}, err
		}
		var keep func(uint32) bool
		if masked := s.maskFn(); masked != nil {
			keep = func(id uint32) bool { return !masked(id) }
		}
		ms, st, err := searchKNNSource(ctx, x.pl.curve, x.pl.depth, s.source(), q, k, maxLeaves, keep)
		if err != nil {
			return nil, KNNStats{}, fmt.Errorf("core: refine of segment %s: %w", s.name, err)
		}
		x.met.candidates.Add(int64(st.Scanned))
		obs.FromContext(ctx).AddCandidates(int64(st.Scanned))
		if len(segs) == 1 {
			return ms, st, nil
		}
		stats.Leaves += st.Leaves
		stats.Scanned += st.Scanned
		stats.Exact = stats.Exact && st.Exact
		all = append(all, ms...)
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Dist != all[b].Dist {
			return all[a].Dist < all[b].Dist
		}
		if all[a].ID != all[b].ID {
			return all[a].ID < all[b].ID
		}
		if all[a].TC != all[b].TC {
			return all[a].TC < all[b].TC
		}
		if all[a].X != all[b].X {
			return all[a].X < all[b].X
		}
		return all[a].Y < all[b].Y
	})
	if len(all) > k {
		all = all[:k]
	}
	return all, stats, nil
}

// batch runs fn for every query index across the worker pool, each
// worker holding one pooled query context for its whole share (the
// batching of eq. 5, executed in parallel).
func (x *executor) batch(ctx context.Context, n int, fn func(qc *queryContext, i int) error) error {
	return forEach(ctx, x.workers, n, x.pl.getCtx, fn, x.pl.putCtx)
}

// searchBatch pipelines many planned queries against one snapshot:
// each worker plans and refines whole queries (no per-query shard
// fan-out). results[i] corresponds to queries[i].
func (x *executor) searchBatch(ctx context.Context, snap *snapshot, queries [][]byte, pq *planned) ([][]Match, error) {
	if err := pq.validate(x.pl.dims()); err != nil {
		return nil, err
	}
	x.admit(x.counter(pq), len(queries), true, 0)
	defer x.met.inflight.Add(-1)
	results := make([][]Match, len(queries))
	err := x.batch(ctx, len(queries), func(qc *queryContext, i int) error {
		if err := qc.setQuery(queries[i]); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		ms, _, err := x.planRefine(ctx, qc, snap, queries[i], pq, false, nil)
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		results[i] = ms
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// searchKNNBatch answers many k-NN queries in parallel, one worker per
// query.
func (x *executor) searchKNNBatch(ctx context.Context, snap *snapshot, queries [][]byte, k, maxLeaves int) ([][]Match, []KNNStats, error) {
	x.admit(x.met.knnQueries, len(queries), true, 0)
	defer x.met.inflight.Add(-1)
	segs := snap.all()
	results := make([][]Match, len(queries))
	stats := make([]KNNStats, len(queries))
	err := x.batch(ctx, len(queries), func(_ *queryContext, i int) error {
		if err := x.checkKNN(queries[i], k); err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		m, st, err := x.knn(ctx, segs, queries[i], k, maxLeaves)
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
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
