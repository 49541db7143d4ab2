package core

// Source-based refinement: the scan half of every query type expressed
// over store.RecordSource, the seam both the in-memory store.DB and the
// disk-backed store.ColdFile satisfy. Planning is untouched — a plan
// depends only on curve geometry — but refinement here visits candidate
// records through the interface, so one implementation serves resident
// and cold segments alike. Sources backed by real I/O can fail
// mid-visit; these helpers propagate that error, which the all-resident
// wrappers (Index.refineStat and friends) may ignore since a DB never
// fails.

import (
	"container/heap"
	"context"
	"fmt"
	"math"

	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

// statMatchesSource refines a statistical plan's intervals against one
// source into sk: every record in them is an answer (the region is the
// answer). masked, when non-nil, hides tombstoned video ids. Pos is
// source-local.
func statMatchesSource(src store.RecordSource, masked func(uint32) bool, ivs []hilbert.Interval, sk *matchSink) error {
	visit := func(rv store.RecordView) bool {
		sk.scanned++
		if masked == nil || !masked(rv.ID) {
			sk.add(rv, -1)
		}
		return true
	}
	// Statistical answers never carry fingerprints; a source with a lean
	// record layout (a codec-bearing cold segment) serves the same views
	// at a fraction of the bytes.
	if ls, ok := src.(store.LeanSource); ok {
		return ls.VisitIntervalsLean(ivs, visit)
	}
	return src.VisitIntervals(ivs, visit)
}

// rangeMatchesSource refines a geometric plan's intervals against one
// source into sk, keeping records within eps of the query point.
func rangeMatchesSource(src store.RecordSource, qf []float64, eps float64, masked func(uint32) bool, ivs []hilbert.Interval, sk *matchSink) error {
	epsSq := eps * eps
	visit := func(rv store.RecordView) bool {
		sk.scanned++
		if masked != nil && masked(rv.ID) {
			return true
		}
		if d := distSqToFP(qf, rv.FP); d <= epsSq {
			sk.add(rv, math.Sqrt(d))
		}
		return true
	}
	// A filtered source rejects most out-of-radius candidates on its
	// quantized codes without exact bytes. The filter is conservative
	// (over-visits, never under-visits) and the exact distance check above
	// stays, so the matches are identical either way.
	if fs, ok := src.(store.FilteredSource); ok {
		return fs.VisitIntervalsFiltered(ivs, qf, epsSq, visit)
	}
	return src.VisitIntervals(ivs, visit)
}

// knnCheckLeaves is how many leaves a k-NN traversal refines between
// checks of its context.
const knnCheckLeaves = 64

// searchKNNSource is the k-NN best-first traversal over a record source:
// blocks of the partition tree are expanded in increasing distance
// order, leaves refined by visiting their curve interval through the
// seam. keep, when non-nil, restricts results to accepted video ids.
// See Index.SearchKNN for the exact/approximate contract. The traversal
// checks ctx every knnCheckLeaves leaves and stops with ctx's error once
// it is canceled or past its deadline.
func searchKNNSource(ctx context.Context, curve *hilbert.Curve, depth int, src store.RecordSource, q []byte, k, maxLeaves int, keep func(id uint32) bool) ([]Match, KNNStats, error) {
	if k < 1 {
		return nil, KNNStats{}, fmt.Errorf("core: k = %d must be >= 1", k)
	}
	qf, err := queryPoint(q, curve.Dims())
	if err != nil {
		return nil, KNNStats{}, err
	}
	var stats KNNStats
	// No answer holds more than the source's records: a huge k must not
	// size the heap.
	best := make(resultHeap, 0, min(k, src.Len()))
	kth := func() float64 {
		if len(best) < k {
			return math.Inf(1)
		}
		return best[0].Dist
	}

	// One-element interval slice reused for every leaf visit: a node's
	// curve interval is a single contiguous range, trivially sorted.
	ivbuf := make([]hilbert.Interval, 1)
	nodes := nodeQueue{{node: curve.RootNode(), distSq: 0}}
	for len(nodes) > 0 {
		e := heap.Pop(&nodes).(nodeEntry)
		if math.Sqrt(e.distSq) > kth() {
			stats.Exact = true
			break
		}
		if e.node.Bits >= depth {
			// Leaf block: refine its records.
			stats.Leaves++
			if stats.Leaves%knnCheckLeaves == 0 {
				if err := ctx.Err(); err != nil {
					return nil, stats, err
				}
			}
			ivbuf[0] = curve.NodeInterval(e.node)
			if err := src.VisitIntervals(ivbuf, func(rv store.RecordView) bool {
				if keep != nil && !keep(rv.ID) {
					return true
				}
				stats.Scanned++
				d := math.Sqrt(distSqToFP(qf, rv.FP))
				if d < kth() {
					m := Match{Pos: rv.Pos, ID: rv.ID, TC: rv.TC, X: rv.X, Y: rv.Y, Dist: d}
					if len(best) == k {
						heap.Pop(&best)
					}
					heap.Push(&best, m)
				}
				return true
			}); err != nil {
				return nil, stats, err
			}
			if maxLeaves > 0 && stats.Leaves >= maxLeaves {
				break
			}
			continue
		}
		for _, child := range curve.SplitNode(e.node) {
			d := nodeDistSq(qf, child.Lo, child.Hi)
			if math.Sqrt(d) <= kth() {
				heap.Push(&nodes, nodeEntry{node: child, distSq: d})
			}
		}
	}
	if len(nodes) == 0 {
		stats.Exact = true
	}
	// Extract in ascending distance order.
	out := make([]Match, len(best))
	for i := len(best) - 1; i >= 0; i-- {
		out[i] = heap.Pop(&best).(Match)
	}
	return out, stats, nil
}
