package core

// Edge-case coverage for the exact (knn.go) and probabilistic
// (probknn.go) k-NN paths: empty index, k larger than the record count,
// invalid parameters, duplicate distances and the filtered variant.

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

func knnTestIndex(t *testing.T, recs []store.Record) *Index {
	t.Helper()
	db := store.MustBuild(hilbert.MustNew(liveTestDims, liveTestOrder), recs)
	ix, err := NewIndex(db, liveTestDepth)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func assertSortedByDist(t *testing.T, ms []Match, label string) {
	t.Helper()
	for i := 1; i < len(ms); i++ {
		if ms[i].Dist < ms[i-1].Dist {
			t.Fatalf("%s: results not sorted by distance at %d", label, i)
		}
	}
}

func TestSearchKNNEmptyIndex(t *testing.T) {
	ix := knnTestIndex(t, nil)
	ms, stats, err := ix.SearchKNN([]byte{1, 2, 3, 4}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("empty index returned %d matches", len(ms))
	}
	if !stats.Exact {
		t.Fatal("empty-index search not marked exact")
	}
}

func TestSearchKNNKGreaterThanN(t *testing.T) {
	recs := []store.Record{
		{FP: []byte{1, 1, 1, 1}, ID: 1, TC: 1},
		{FP: []byte{8, 8, 8, 8}, ID: 2, TC: 2},
		{FP: []byte{30, 30, 30, 30}, ID: 3, TC: 3},
	}
	ix := knnTestIndex(t, recs)
	ms, stats, err := ix.SearchKNN([]byte{1, 1, 1, 1}, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != len(recs) {
		t.Fatalf("k > n returned %d matches, want all %d records", len(ms), len(recs))
	}
	if !stats.Exact {
		t.Fatal("k > n search not marked exact")
	}
	assertSortedByDist(t, ms, "k > n")
	if ms[0].ID != 1 || ms[0].Dist != 0 {
		t.Fatalf("nearest record wrong: %+v", ms[0])
	}
}

func TestSearchKNNInvalidParams(t *testing.T) {
	ix := knnTestIndex(t, []store.Record{{FP: []byte{1, 2, 3, 4}}})
	if _, _, err := ix.SearchKNN([]byte{1, 2, 3, 4}, 0, 0); err == nil {
		t.Fatal("k = 0 accepted")
	}
	if _, _, err := ix.SearchKNN([]byte{1, 2, 3, 4}, -5, 0); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, _, err := ix.SearchKNN([]byte{1, 2}, 1, 0); err == nil {
		t.Fatal("wrong-dimension query accepted")
	}
}

// Duplicate fingerprints: every returned match ties at distance zero and
// the result still holds exactly k records.
func TestSearchKNNDuplicateDistances(t *testing.T) {
	var recs []store.Record
	for i := 0; i < 6; i++ {
		recs = append(recs, store.Record{FP: []byte{7, 7, 7, 7}, ID: uint32(i), TC: uint32(i)})
	}
	recs = append(recs, store.Record{FP: []byte{20, 20, 20, 20}, ID: 100, TC: 100})
	ix := knnTestIndex(t, recs)
	ms, stats, err := ix.SearchKNN([]byte{7, 7, 7, 7}, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 {
		t.Fatalf("got %d matches, want 3", len(ms))
	}
	for _, m := range ms {
		if m.Dist != 0 {
			t.Fatalf("expected a zero-distance tie, got %+v", m)
		}
		if m.ID == 100 {
			t.Fatal("far record displaced a zero-distance duplicate")
		}
	}
	if !stats.Exact {
		t.Fatal("duplicate-distance search not marked exact")
	}
}

func TestSearchKNNFilterSkipsRejected(t *testing.T) {
	recs := []store.Record{
		{FP: []byte{1, 1, 1, 1}, ID: 1, TC: 1},
		{FP: []byte{1, 1, 1, 2}, ID: 2, TC: 2},
		{FP: []byte{1, 1, 1, 3}, ID: 3, TC: 3},
	}
	ix := knnTestIndex(t, recs)
	ms, _, err := ix.SearchKNNFilter([]byte{1, 1, 1, 1}, 2, 0, func(id uint32) bool { return id != 1 })
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("got %d matches, want 2", len(ms))
	}
	for _, m := range ms {
		if m.ID == 1 {
			t.Fatal("rejected id returned")
		}
	}
	// Rejecting everything yields an empty exact answer.
	ms, stats, err := ix.SearchKNNFilter([]byte{1, 1, 1, 1}, 2, 0, func(uint32) bool { return false })
	if err != nil || len(ms) != 0 {
		t.Fatalf("reject-all: got %d matches, err %v", len(ms), err)
	}
	if !stats.Exact {
		t.Fatal("reject-all search not marked exact")
	}
}

func TestSearchKNNMaxLeavesEarlyStop(t *testing.T) {
	var recs []store.Record
	for i := 0; i < 64; i++ {
		recs = append(recs, store.Record{FP: []byte{byte(i % 32), byte(i / 2 % 32), 3, 4}, ID: uint32(i), TC: uint32(i)})
	}
	ix := knnTestIndex(t, recs)
	ms, stats, err := ix.SearchKNN([]byte{5, 5, 3, 4}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Leaves > 1 {
		t.Fatalf("refined %d leaves with maxLeaves=1", stats.Leaves)
	}
	if len(ms) > 5 {
		t.Fatalf("returned %d matches for k=5", len(ms))
	}
	assertSortedByDist(t, ms, "early stop")
}

func TestSearchKNNProbEdgeCases(t *testing.T) {
	model := IsoNormal{D: liveTestDims, Sigma: 2}
	ix := knnTestIndex(t, []store.Record{
		{FP: []byte{4, 4, 4, 4}, ID: 1, TC: 1},
		{FP: []byte{4, 4, 4, 5}, ID: 2, TC: 2},
	})
	q := []byte{4, 4, 4, 4}
	if _, _, err := ix.SearchKNNProb(q, 0, 0.9, model); err == nil {
		t.Fatal("k = 0 accepted")
	}
	for _, conf := range []float64{0, 1, -0.5, 1.5} {
		if _, _, err := ix.SearchKNNProb(q, 1, conf, model); err == nil {
			t.Fatalf("confidence %v accepted", conf)
		}
	}
	if _, _, err := ix.SearchKNNProb([]byte{1}, 1, 0.9, model); err == nil {
		t.Fatal("wrong-dimension query accepted")
	}

	// k > n returns everything inside the visited region.
	ms, stats, err := ix.SearchKNNProb(q, 10, 0.95, model)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) > 2 {
		t.Fatalf("returned %d matches from a 2-record index", len(ms))
	}
	if stats.VisitedMass < 0.95 {
		t.Fatalf("visited mass %v below requested confidence", stats.VisitedMass)
	}
	assertSortedByDist(t, ms, "prob k > n")

	// Empty index: no matches, no error, confidence still honored.
	emptyIx := knnTestIndex(t, nil)
	ms, stats, err = emptyIx.SearchKNNProb(q, 3, 0.9, model)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("empty index returned %d matches", len(ms))
	}
	if stats.VisitedMass < 0.9 {
		t.Fatalf("visited mass %v below requested confidence", stats.VisitedMass)
	}
}

// The live index's k-NN path shares these edges: empty index and k > n.
func TestLiveSearchKNNEdgeCases(t *testing.T) {
	li, err := OpenLiveIndex(liveTestCurve(), "", LiveOptions{Depth: liveTestDepth, MemtableRecords: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	ctx := context.Background()
	q := []byte{1, 2, 3, 4}
	ms, stats, err := li.SearchKNN(ctx, q, 3, 0)
	if err != nil || len(ms) != 0 {
		t.Fatalf("empty live index: %d matches, err %v", len(ms), err)
	}
	if !stats.Exact {
		t.Fatal("empty live k-NN not marked exact")
	}
	if _, _, err := li.SearchKNN(ctx, q, 0, 0); err == nil {
		t.Fatal("k = 0 accepted")
	}
	if _, _, err := li.SearchKNN(ctx, []byte{1}, 1, 0); err == nil {
		t.Fatal("wrong-dimension query accepted")
	}
	recs := []store.Record{
		{FP: []byte{1, 2, 3, 4}, ID: 1, TC: 1},
		{FP: []byte{2, 2, 3, 4}, ID: 2, TC: 2},
		{FP: []byte{9, 9, 9, 9}, ID: 3, TC: 3},
	}
	if err := li.Ingest(recs); err != nil {
		t.Fatal(err)
	}
	ms, stats, err = li.SearchKNN(ctx, q, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 3 || !stats.Exact {
		t.Fatalf("k > n over segments: %d matches (exact %v), want 3 exact", len(ms), stats.Exact)
	}
	assertSortedByDist(t, ms, "live k > n")
}

// A k far beyond the record count must neither size the result heap
// nor change the answer: every record, nearest first. (k = 2^40 used to
// preallocate its heap and kill the process.)
func TestSearchKNNHugeK(t *testing.T) {
	recs := []store.Record{
		{FP: []byte{1, 1, 1, 1}, ID: 1, TC: 1},
		{FP: []byte{8, 8, 8, 8}, ID: 2, TC: 2},
		{FP: []byte{30, 30, 30, 30}, ID: 3, TC: 3},
	}
	ix := knnTestIndex(t, recs)
	const k = 1 << 40
	ms, _, err := ix.SearchKNN([]byte{1, 1, 1, 1}, k, 0)
	if err != nil || len(ms) != len(recs) {
		t.Fatalf("exact k-NN with k = 2^40: %d matches, err %v", len(ms), err)
	}
	model := IsoNormal{D: liveTestDims, Sigma: 2}
	if ms, _, err := ix.SearchKNNProb([]byte{1, 1, 1, 1}, k, 0.9, model); err != nil || len(ms) > len(recs) {
		t.Fatalf("probabilistic k-NN with k = 2^40: %d matches, err %v", len(ms), err)
	}
}

// cancelingSource cancels a context on its n-th leaf visit.
type cancelingSource struct {
	store.RecordSource
	n      int
	visits int
	cancel context.CancelFunc
}

func (s *cancelingSource) VisitIntervals(ivs []hilbert.Interval, visit func(store.RecordView) bool) error {
	if s.visits++; s.visits == s.n {
		s.cancel()
	}
	return s.RecordSource.VisitIntervals(ivs, visit)
}

// An exact traversal notices a context canceled mid-way at its next
// check and stops there, instead of refining every remaining leaf.
func TestSearchKNNSourceHonoursContext(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	recs := make([]store.Record, 2000)
	for i := range recs {
		recs[i] = randLiveRecord(r)
	}
	ix := knnTestIndex(t, recs)
	q := recs[0].FP

	_, full, err := ix.SearchKNN(q, len(recs), 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Leaves < 3*knnCheckLeaves {
		t.Fatalf("full traversal refines %d leaves, too few to abort mid-way", full.Leaves)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src := &cancelingSource{RecordSource: ix.db, n: 10, cancel: cancel}
	_, st, err := searchKNNSource(ctx, ix.curve, ix.depth, src, q, len(recs), 0, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled traversal returned err %v", err)
	}
	if st.Leaves != knnCheckLeaves {
		t.Fatalf("canceled at leaf 10, stopped after %d leaves, want the next check at %d", st.Leaves, knnCheckLeaves)
	}
}
