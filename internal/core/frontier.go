package core

import (
	"cmp"
	"slices"

	"s3cbcd/internal/hilbert"
)

// This file implements the incremental frontier planner. The legacy
// threshold search (planStatLegacyCached) pays for every evaluation of
// P_sup(t) with a full pruned descent from the root — up to
// maxThresholdIters of them per query. But the block sets the descent
// selects are monotone in t: lowering t only expands nodes an earlier
// descent pruned, and raising t only discards already-discovered leaves.
// So one materialized descent suffices. The first evaluation records
// every pruned node with its mass and its 64-bit node id, from which the
// descent replays the node's bounds and curve state to continue below
// it; evaluations at lower thresholds pop and expand exactly the
// frontier nodes whose mass now clears the threshold; evaluations at
// higher thresholds touch no curve state at all — they filter the
// accumulated leaf list by stored block mass.
//
// The planner is careful to be bit-identical to the legacy search, not
// just equivalent: every pruned node stores its running product, its
// per-dimension factors are recovered bitwise from the mass cache on
// expansion (each one was computed through the cache when the node was
// reached), so a resumed expansion replays exactly the float operations a
// from-scratch descent would have performed below that node, and leaf
// masses are summed in curve order exactly as a single descent would have
// emitted them.

// frontierNode is one discovered depth-p block (a leaf) or one pruned
// node awaiting possible expansion (a frontier entry). Either is named by
// its partition-tree id alone: a leaf's curve interval follows from the
// id, and a frontier entry's bounds and curve state are replayed from it
// on expansion. At 24 bytes, the state of a large plan stays small.
type frontierNode struct {
	id hilbert.NodeID
	// mass is the node's running product: a leaf's own block mass, a
	// frontier entry's prune decision value.
	mass float64
	// gate is the minimum running product along the root path, including
	// the node itself. A single descent at threshold t emits a leaf iff
	// every product on the path exceeds t, i.e. iff gate > t. For a
	// numerically monotone model gate == mass; carrying it separately
	// keeps the planner exact even when rounding makes a child product a
	// few ulps above its parent's.
	gate float64
}

// frontierState is the reusable per-worker state of the incremental
// planner: the discovered leaves (curve order), the frontier of pruned
// nodes (unordered — every evaluation expands ALL entries above its
// threshold, so no priority structure earns its keep), and the live
// visitor bookkeeping used during expansions. All of it resets by
// reslicing, so a pooled frontierState plans query after query without
// allocating.
type frontierState struct {
	curve *hilbert.Curve
	fd    *hilbert.FrontierDescent

	// Per-query bindings.
	depth int
	mc    *massCache
	m     Model
	q     []float64

	// Live visitor state during one expansion.
	t       float64
	factors []float64
	prod    float64
	gate    float64
	stack   []frontierFrame
	nodes   int // Enter calls this query (descent nodes visited)

	// Prune handoff between Enter (which rejects) and Pruned (which
	// records the rejected child).
	pruneMass float64

	leaves   []frontierNode // discovered leaves, sorted by id
	scratch  []frontierNode // merge double-buffer
	pending  []frontierNode // leaves emitted by the current eval's expansions
	frontier []frontierNode
	batch    []frontierNode // the frontier nodes the current eval expands
	ivs      []hilbert.Interval

	// alias makes intervalsAt skip its defensive copy: the produced
	// plan's Intervals then share s.ivs and are overwritten by the next
	// query that borrows this state. Only Engine.PlanStat sets it — the
	// one caller whose contract documents the aliasing — keeping the
	// untraced pooled plan path allocation-free.
	alias bool
}

type frontierFrame struct {
	dim    int
	factor float64
	prod   float64
	gate   float64
}

func newFrontierState(curve *hilbert.Curve) *frontierState {
	return &frontierState{
		curve:   curve,
		fd:      curve.NewFrontierDescent(),
		factors: make([]float64, curve.Dims()),
	}
}

// begin binds the state to one query and seeds the frontier with the
// root node (mass 1, all factors 1 — the state a fresh descent starts
// in).
func (s *frontierState) begin(depth int, m Model, q []float64, mc *massCache) {
	s.depth, s.m, s.q, s.mc = depth, m, q, mc
	s.leaves = s.leaves[:0]
	s.scratch = s.scratch[:0]
	s.pending = s.pending[:0]
	s.frontier = s.frontier[:0]
	s.ivs = s.ivs[:0]
	s.nodes = 0
	s.frontier = append(s.frontier, frontierNode{id: hilbert.RootID, mass: 1, gate: 1})
	s.fd.Reset()
	for j := range s.factors {
		s.factors[j] = 1
	}
}

// expandTo lowers the materialized frontier to threshold t: every
// frontier node whose mass exceeds t is removed and its subtree descended
// (at threshold t) exactly as the legacy search would have, emitting new
// leaves and appending newly pruned nodes. Thresholds at or above every
// stored mass make this a pure scan — the traversal-free fast path of
// evaluations that raise t. The nodes to expand are taken out first, so
// nodes pruned during this round (all at or below t) are never expanded
// again in it.
//
// The expansions run in curve order. The descent then walks from one
// expanded node to the next along their shared prefix only, and the
// leaves they emit come out in curve order.
func (s *frontierState) expandTo(t float64) {
	s.pending = s.pending[:0]
	s.batch = s.batch[:0]
	for i := 0; i < len(s.frontier); {
		if s.frontier[i].mass <= t {
			i++
			continue
		}
		s.batch = append(s.batch, s.frontier[i])
		last := len(s.frontier) - 1
		s.frontier[i] = s.frontier[last]
		s.frontier = s.frontier[:last]
	}
	if len(s.batch) == 0 {
		return
	}
	slices.SortFunc(s.batch, func(a, b frontierNode) int {
		return cmp.Compare(curveOrder(a.id), curveOrder(b.id))
	})
	s.t = t
	for _, e := range s.batch {
		// Position the visitor exactly where a from-scratch descent
		// would be on entering this node: Seek reports every bound it
		// changes to Move, which keeps each factor equal to the mass of
		// the dimension's current bound.
		s.fd.Seek(e.id, s)
		s.prod, s.gate = e.mass, e.gate
		s.stack = s.stack[:0]
		s.fd.Descend(s.depth, s)
	}
	if len(s.pending) > 0 {
		s.mergePending()
	}
}

// curveOrder maps a node id to a key that orders disjoint nodes of any
// depths by their position on the curve: the prefix, left-aligned.
func curveOrder(id hilbert.NodeID) uint64 {
	return uint64(id) << uint(hilbert.MaxFrontierDepth-id.Depth())
}

// Move implements hilbert.FrontierVisitor: a dimension the path has
// split carries the mass-cache factor of its current bound (the cache
// returns the bitwise value computed when the node was first reached),
// an untouched one the root factor 1.
func (s *frontierState) Move(dim int, lo, hi uint32) {
	if lo == 0 && hi == s.curve.SideLen() {
		s.factors[dim] = 1
	} else {
		s.factors[dim] = s.mc.get(s.m, s.q, dim, lo, hi)
	}
}

// Enter implements hilbert.FrontierVisitor with the statistical filtering
// rule of statVisitor, additionally tracking the path-minimum product.
func (s *frontierState) Enter(dim int, lo, hi uint32) bool {
	s.nodes++
	f := s.mc.get(s.m, s.q, dim, lo, hi)
	np := s.prod / s.factors[dim] * f
	if np <= s.t {
		s.pruneMass = np
		return false
	}
	s.stack = append(s.stack, frontierFrame{dim: dim, factor: s.factors[dim], prod: s.prod, gate: s.gate})
	s.factors[dim] = f
	s.prod = np
	if np < s.gate {
		s.gate = np
	}
	return true
}

// Leave implements hilbert.FrontierVisitor.
func (s *frontierState) Leave(int) {
	fr := s.stack[len(s.stack)-1]
	s.stack = s.stack[:len(s.stack)-1]
	s.factors[fr.dim] = fr.factor
	s.prod = fr.prod
	s.gate = fr.gate
}

// Leaf implements hilbert.FrontierVisitor.
func (s *frontierState) Leaf(id hilbert.NodeID) bool {
	s.pending = append(s.pending, frontierNode{id: id, mass: s.prod, gate: s.gate})
	return true
}

// Pruned implements hilbert.FrontierVisitor: it records a rejected child
// in the frontier. Nodes whose mass cannot clear even the floor
// threshold are dropped: the search never evaluates below tFloor, so
// they are unreachable.
func (s *frontierState) Pruned(id hilbert.NodeID) {
	if s.pruneMass <= tFloor {
		return
	}
	gate := s.gate
	if s.pruneMass < gate {
		gate = s.pruneMass
	}
	s.frontier = append(s.frontier, frontierNode{id: id, mass: s.pruneMass, gate: gate})
}

// mergePending folds the current eval's expansion leaves into the sorted
// leaf list. The expansions ran in curve order, so pending is sorted, and
// every expanded node covers a curve interval disjoint from every
// existing leaf (dyadic intervals nest or are disjoint, and the frontier
// partitions the unexplored remainder): zipping the two lists restores
// global curve order.
func (s *frontierState) mergePending() {
	merged := s.scratch[:0]
	li := 0
	for pi := range s.pending {
		id := s.pending[pi].id
		for li < len(s.leaves) && s.leaves[li].id < id {
			merged = append(merged, s.leaves[li])
			li++
		}
		merged = append(merged, s.pending[pi])
	}
	merged = append(merged, s.leaves[li:]...)
	s.leaves, s.scratch = merged, s.leaves[:0]
}

// selectAt filters the discovered leaves at threshold t without touching
// the curve: exactly the leaves a fresh descent at t would emit, in the
// same order, summed in the same order.
func (s *frontierState) selectAt(t float64) (blocks int, mass float64) {
	for i := range s.leaves {
		if s.leaves[i].gate > t {
			blocks++
			mass += s.leaves[i].mass
		}
	}
	return blocks, mass
}

// intervalsAt returns the merged curve intervals of the selection at t.
// Leaves share one depth, so two of them are adjacent on the curve iff
// their ids are consecutive: runs merge on ids, and each run becomes one
// key interval. Unless s.alias is set the result is freshly allocated:
// plans outlive the pooled state.
func (s *frontierState) intervalsAt(t float64) []hilbert.Interval {
	s.ivs = s.ivs[:0]
	for i := 0; i < len(s.leaves); i++ {
		if !(s.leaves[i].gate > t) {
			continue
		}
		first, last := s.leaves[i].id, s.leaves[i].id
		for i+1 < len(s.leaves) && s.leaves[i+1].id == last+1 && s.leaves[i+1].gate > t {
			i++
			last++
		}
		s.ivs = append(s.ivs, s.curve.IDSpan(first, last))
	}
	if len(s.ivs) == 0 {
		return nil // matches the legacy planner's empty result exactly
	}
	if s.alias {
		return s.ivs
	}
	out := make([]hilbert.Interval, len(s.ivs))
	copy(out, s.ivs)
	return out
}
