package main

import "testing"

// A run below the recall floor fails every missed copy; at or above it a
// miss is not a failure.
func TestRecallGate(t *testing.T) {
	cases := []struct {
		copies, hits, failedBefore, wantFailed int
	}{
		{copies: 10, hits: 10, wantFailed: 0},
		{copies: 10, hits: 7, wantFailed: 0},                  // recall 0.7 = floor
		{copies: 10, hits: 6, wantFailed: 4},                  // below: all 4 misses fail
		{copies: 10, hits: 6, failedBefore: 1, wantFailed: 5}, // added to earlier failures
		{copies: 0, hits: 0, failedBefore: 2, wantFailed: 2},  // no copies decided
		{copies: 100, hits: 0, failedBefore: 0, wantFailed: 100},
	}
	for _, c := range cases {
		tl := clipTally{copies: c.copies, hits: c.hits, failed: c.failedBefore}
		tl.gateRecall()
		if tl.failed != c.wantFailed {
			t.Errorf("copies %d hits %d: failed %d, want %d", c.copies, c.hits, tl.failed, c.wantFailed)
		}
	}
}

// Clips come in blocks of one copy per transformation of one reference,
// then a clean clip, and a clip regenerates identically from its identity.
func TestClipBlocks(t *testing.T) {
	in := &clipInputs{seed: 7, cachedRef: -1}
	for i := 0; i < 2*clipCleanEvery; i++ {
		c, id := in.clip(i)
		b, k := i/clipCleanEvery, i%clipCleanEvery
		if k == len(clipKinds) {
			if c.ref != -1 || id != -1-b%clipCleans {
				t.Fatalf("clip %d: ref %d id %d, want a clean clip", i, c.ref, id)
			}
			continue
		}
		if c.ref != b%clipRefs || id != i {
			t.Fatalf("clip %d: ref %d id %d, want ref %d id %d", i, c.ref, id, b%clipRefs, i)
		}
		if want := clipKinds[k](0).Name(); c.kind != want {
			t.Fatalf("clip %d: kind %s, want %s", i, c.kind, want)
		}
		again := in.byID(id)
		if again.start != c.start || again.kind != c.kind || len(again.seq.Frames) != clipFrames {
			t.Fatalf("clip %d does not regenerate identically", i)
		}
		for f := range again.seq.Frames {
			for p, v := range again.seq.Frames[f].Pix {
				if c.seq.Frames[f].Pix[p] != v {
					t.Fatalf("clip %d frame %d differs when regenerated", i, f)
				}
			}
		}
	}
}
