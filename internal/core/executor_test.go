package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"s3cbcd/internal/obs"
	"s3cbcd/internal/store"
)

// TestTracedBatchSameWorkEngineAndLive runs one traced statistical batch
// over the same records through a static Engine and a LiveIndex. Both
// serve through the one executor, so the trace must report the same
// planning and refinement work — and the answers must agree.
func TestTracedBatchSameWorkEngineAndLive(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	recs := make([]store.Record, 700)
	for i := range recs {
		recs[i] = randLiveRecord(r)
	}
	db, err := store.Build(liveTestCurve(), recs)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(db, liveTestDepth)
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(ix, 3, 2)
	li, err := OpenLiveIndex(liveTestCurve(), "", LiveOptions{Depth: liveTestDepth, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer li.Close()
	if err := li.Ingest(recs); err != nil {
		t.Fatal(err)
	}

	queries := make([][]byte, 12)
	for i := range queries {
		queries[i] = randLiveRecord(r).FP
	}
	sq := StatQuery{Alpha: 0.9, Model: IsoNormal{D: liveTestDims, Sigma: 2.5}}
	run := func(s Searcher) ([][]Match, obs.TraceReport) {
		tr := obs.NewTrace()
		res, err := s.SearchStatBatch(obs.WithTrace(context.Background(), tr), queries, sq)
		if err != nil {
			t.Fatal(err)
		}
		return res, tr.Report()
	}
	engRes, engRep := run(eng)
	liveRes, liveRep := run(li)
	if engRep.DescentNodes == 0 || engRep.Blocks == 0 || engRep.Candidates == 0 {
		t.Fatalf("engine batch trace recorded no work: %+v", engRep)
	}
	if liveRep.DescentNodes != engRep.DescentNodes || liveRep.Blocks != engRep.Blocks ||
		liveRep.Candidates != engRep.Candidates {
		t.Fatalf("traced batch work differs: engine nodes/blocks/candidates %d/%d/%d, live %d/%d/%d",
			engRep.DescentNodes, engRep.Blocks, engRep.Candidates,
			liveRep.DescentNodes, liveRep.Blocks, liveRep.Candidates)
	}
	// The memtable is the live index's only segment and was built like
	// the engine's database, so even record positions agree.
	if !reflect.DeepEqual(engRes, liveRes) {
		t.Fatal("engine and live batch answers differ over the same records")
	}
}
