package core

// k-nearest-neighbor search on the S³ structure, implemented as an exact
// best-first traversal of the block tree plus an early-stopping
// approximate variant. The paper argues (Sections I and V-C) that k-NN is
// the wrong query type for copy detection — the number of relevant
// fingerprints per query is highly variable, and growing database density
// pushes relevant fingerprints out of the fixed-size answer. SearchKNN
// exists to reproduce that argument experimentally (cmd/s3bench -exp knn)
// and as a general-purpose query for other applications of the index.

import (
	"context"
	"s3cbcd/internal/hilbert"
)

// KNNStats reports the work a k-NN search performed.
type KNNStats struct {
	// Leaves is the number of leaf blocks refined.
	Leaves int
	// Scanned is the number of records whose distance was evaluated.
	Scanned int
	// Exact is true when the traversal proved the answer exact (it
	// exhausted every node closer than the k-th neighbor).
	Exact bool
}

// nodeEntry is a prioritized block-tree node.
type nodeEntry struct {
	node   hilbert.Node
	distSq float64
}

type nodeQueue []nodeEntry

func (q nodeQueue) Len() int            { return len(q) }
func (q nodeQueue) Less(i, j int) bool  { return q[i].distSq < q[j].distSq }
func (q nodeQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *nodeQueue) Push(x interface{}) { *q = append(*q, x.(nodeEntry)) }
func (q *nodeQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// resultHeap is a max-heap of the current k best matches (worst on top).
type resultHeap []Match

func (h resultHeap) Len() int            { return len(h) }
func (h resultHeap) Less(i, j int) bool  { return h[i].Dist > h[j].Dist }
func (h resultHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *resultHeap) Push(x interface{}) { *h = append(*h, x.(Match)) }
func (h *resultHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// SearchKNN returns the k nearest stored fingerprints to q by L2
// distance, closest first. With maxLeaves <= 0 the search is exact: it
// expands blocks in increasing distance order and stops once the nearest
// unexplored block is farther than the k-th best match. With maxLeaves >
// 0 it stops early after refining that many leaf blocks — the
// "early stopping" approximate k-NN family the paper cites ([14], [15]).
func (ix *Index) SearchKNN(q []byte, k int, maxLeaves int) ([]Match, KNNStats, error) {
	return ix.SearchKNNFilter(q, k, maxLeaves, nil)
}

// SearchKNNFilter is SearchKNN restricted to records whose video
// identifier the keep predicate accepts; nil keep accepts every record.
// Rejected records are skipped before they can occupy a result slot, so
// the answer is the k nearest *kept* records — the form a segmented live
// index needs to search past tombstoned videos. The traversal itself
// lives in searchKNNSource (refine.go), shared with disk-backed cold
// segments; an in-memory DB never fails, so the error is always the
// argument validation's.
func (ix *Index) SearchKNNFilter(q []byte, k int, maxLeaves int, keep func(id uint32) bool) ([]Match, KNNStats, error) {
	return searchKNNSource(context.Background(), ix.curve, ix.depth, ix.db, q, k, maxLeaves, keep)
}

// nodeDistSq is the squared distance from q to the nearest integer grid
// point of the node rectangle.
func nodeDistSq(q []float64, lo, hi []uint32) float64 {
	s := 0.0
	for j := range lo {
		s += dimDistSq(q[j], lo[j], hi[j])
	}
	return s
}
