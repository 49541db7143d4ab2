package core

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"s3cbcd/internal/store"
)

// The frontier planner names nodes by 64-bit ids, so every entry point
// that sets a partition depth rejects one above MaxDepth, even on a
// curve with more index bits. testDB(8 dims) has 64 index bits.
func TestDepthAboveMaxRejected(t *testing.T) {
	db := testDB(t, 8, 500, 31)
	if db.Curve().IndexBits() <= MaxDepth {
		t.Fatalf("test curve has %d index bits, need more than %d", db.Curve().IndexBits(), MaxDepth)
	}
	tooDeep := MaxDepth + 1

	if _, err := NewIndex(db, tooDeep); err == nil || !strings.Contains(err.Error(), "outside") {
		t.Errorf("NewIndex accepted depth %d: %v", tooDeep, err)
	}
	ix, err := NewIndex(db, MaxDepth)
	if err != nil {
		t.Fatalf("NewIndex rejected depth %d: %v", MaxDepth, err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("SetDepth(%d) did not panic", tooDeep)
			}
		}()
		ix.SetDepth(tooDeep)
	}()
	if ix.Depth() != MaxDepth {
		t.Errorf("rejected SetDepth changed the depth to %d", ix.Depth())
	}
	sq := StatQuery{Alpha: 0.3, Model: IsoNormal{D: 8, Sigma: 0.4}}
	if _, err := ix.SweepDepth([]int{tooDeep}, [][]byte{db.FP(0)}, sq); err == nil {
		t.Errorf("SweepDepth accepted depth %d", tooDeep)
	}

	if _, err := OpenLiveIndex(db.Curve(), "", LiveOptions{Depth: tooDeep}); err == nil {
		t.Errorf("OpenLiveIndex accepted depth %d", tooDeep)
	}
	li, err := OpenLiveIndex(db.Curve(), "", LiveOptions{Depth: MaxDepth})
	if err != nil {
		t.Fatalf("OpenLiveIndex rejected depth %d: %v", MaxDepth, err)
	}
	li.Close()

	path := filepath.Join(t.TempDir(), "db.s3db")
	if err := db.WriteFile(path, 10); err != nil {
		t.Fatal(err)
	}
	fl, err := store.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	if _, err := NewDiskIndex(fl, tooDeep); err == nil {
		t.Errorf("NewDiskIndex accepted depth %d", tooDeep)
	}

	// At the limit the frontier planner still matches the legacy search
	// bit for bit.
	for i := 0; i < 5; i++ {
		q := db.FP(i * 97)
		got, err := ix.PlanStat(q, sq)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ix.PlanStatLegacy(q, sq)
		if err != nil {
			t.Fatal(err)
		}
		if d := planDiff(got, want); d != "" {
			t.Fatalf("query %d at depth %d: %s", i, MaxDepth, d)
		}
	}
}

// The auto-tuner deepens a refine-dominated workload, but never past
// MaxDepth on a curve that has more index bits.
func TestAutoTuneDepthStaysWithinMax(t *testing.T) {
	db := testDB(t, 8, 500, 32)
	ix, err := NewIndex(db, MaxDepth-2)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(ix, 1, 1)
	e.EnableAutoTune(AutoTuneOptions{Interval: 16, TuneDepth: true})
	for w := 0; w < 10; w++ {
		feedWindow(e.tuner, time.Microsecond, 100*time.Microsecond)
		if d := e.tuner.current().depth; d > MaxDepth {
			t.Fatalf("window %d: tuner moved depth to %d, above %d", w, d, MaxDepth)
		}
	}
	if d := e.tuner.current().depth; d != MaxDepth {
		t.Errorf("refine-dominated workload left depth at %d, want the limit %d", d, MaxDepth)
	}
}
