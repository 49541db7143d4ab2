package vote

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"s3cbcd/internal/stat"
)

// This file keeps the straightforward voting implementation as the
// oracle for Decide and Score: group every identifier through maps, then
// estimate every group, evaluating every offset in full. The production
// path skips identifiers that cannot reach MinVotes, groups into flat
// arrays and bounds the offset search; it must return bit-identical
// detections.

// oracleObs groups one candidate fingerprint's matches for one
// identifier.
type oracleObs struct {
	tcQ    float64 // tc'_j
	qx, qy float64 // candidate interest point position
	refs   []ref   // matches with Id_jk = id
}

// idGroup is all observations of one identifier, in candidate order.
type idGroup struct {
	id  uint32
	obs []oracleObs
}

// groupByID builds the per-identifier observation lists in one pass over
// the results.
func groupByID(cands []Candidate) []idGroup {
	index := map[uint32]int{}
	lastCand := map[uint32]int{}
	var groups []idGroup
	for j, c := range cands {
		for _, m := range c.Matches {
			gi, seen := index[m.ID]
			if !seen {
				gi = len(groups)
				index[m.ID] = gi
				groups = append(groups, idGroup{id: m.ID})
			}
			g := &groups[gi]
			if last, ok := lastCand[m.ID]; !seen || !ok || last != j {
				g.obs = append(g.obs, oracleObs{tcQ: float64(c.TC), qx: c.X, qy: c.Y})
				lastCand[m.ID] = j
			}
			o := &g.obs[len(g.obs)-1]
			o.refs = append(o.refs, ref{tc: float64(m.TC), x: float64(m.X), y: float64(m.Y)})
		}
	}
	sort.Slice(groups, func(i, j int) bool { return groups[i].id < groups[j].id })
	return groups
}

// estimateGroup solves eq. (2) for one identifier, evaluating the full
// Tukey cost of every (subsampled) candidate offset.
func estimateGroup(observations []oracleObs, cfg Config) (Detection, bool) {
	if len(observations) == 0 {
		return Detection{}, false
	}
	var offsets []float64
	for _, o := range observations {
		for _, rf := range o.refs {
			offsets = append(offsets, o.tcQ-rf.tc)
		}
	}
	if len(offsets) > maxOffsetCandidates {
		step := len(offsets) / maxOffsetCandidates
		sub := make([]float64, 0, maxOffsetCandidates)
		for i := 0; i < len(offsets); i += step {
			sub = append(sub, offsets[i])
		}
		offsets = sub
	}

	cost := func(b float64) float64 {
		total := 0.0
		for _, o := range observations {
			best := math.Inf(1)
			for _, rf := range o.refs {
				if r := math.Abs(o.tcQ - (rf.tc + b)); r < best {
					best = r
				}
			}
			total += stat.TukeyRho(best, cfg.TukeyC)
		}
		return total
	}

	bestB, bestCost := offsets[0], math.Inf(1)
	for _, b := range offsets {
		if c := cost(b); c < bestCost {
			bestCost, bestB = c, b
		}
	}

	b := bestB
	for it := 0; it < cfg.IRLSIters; it++ {
		var num, den float64
		for _, o := range observations {
			bestR, bestTC := math.Inf(1), 0.0
			for _, rf := range o.refs {
				if r := math.Abs(o.tcQ - (rf.tc + b)); r < bestR {
					bestR, bestTC = r, rf.tc
				}
			}
			w := stat.TukeyWeight(bestR, cfg.TukeyC)
			num += w * (o.tcQ - bestTC)
			den += w
		}
		if den == 0 {
			break
		}
		nb := num / den
		if math.Abs(nb-b) < 1e-6 {
			b = nb
			break
		}
		b = nb
	}
	if c := cost(b); c < bestCost {
		bestCost = c
	} else {
		b = bestB
	}

	votes := 0
	var spatialObs []spatialObservation
	for _, o := range observations {
		best := math.Inf(1)
		var bestRef ref
		for _, rf := range o.refs {
			if r := math.Abs(o.tcQ - (rf.tc + b)); r < best {
				best, bestRef = r, rf
			}
		}
		if best <= cfg.Tolerance {
			votes++
			if cfg.SpatialTolerance > 0 {
				spatialObs = append(spatialObs, spatialObservation{
					refX: bestRef.x, refY: bestRef.y,
					candX: o.qx, candY: o.qy,
				})
			}
		}
	}
	det := Detection{Offset: b, Votes: votes, TemporalVotes: votes,
		ScaleX: 1, ScaleY: 1, Cost: bestCost}
	if cfg.SpatialTolerance > 0 {
		sv, mx, my := spatialVotes(spatialObs, cfg.SpatialTolerance)
		det.Votes = sv
		det.ScaleX, det.ScaleY = mx.A, my.A
	}
	return det, true
}

// oracleDecide is Decide (cut = true) or Score (cut = false) on the
// oracle implementation.
func oracleDecide(cands []Candidate, cfg Config, cut bool) []Detection {
	cfg = cfg.withDefaults()
	if !cut {
		cfg.MinVotes = 0
	}
	var dets []Detection
	for _, g := range groupByID(cands) {
		d, ok := estimateGroup(g.obs, cfg)
		if ok && d.Votes >= cfg.MinVotes {
			d.ID = g.id
			dets = append(dets, d)
		}
	}
	sort.Slice(dets, func(i, j int) bool {
		if dets[i].Votes != dets[j].Votes {
			return dets[i].Votes > dets[j].Votes
		}
		return dets[i].ID < dets[j].ID
	})
	return dets
}

// sameDetections reports the first difference between two detection
// lists, comparing floats bit for bit; "" when identical.
func sameDetections(got, want []Detection) string {
	if len(got) != len(want) {
		return "length differs"
	}
	bits := math.Float64bits
	for i := range got {
		g, w := got[i], want[i]
		if g.ID != w.ID || g.Votes != w.Votes || g.TemporalVotes != w.TemporalVotes ||
			bits(g.Offset) != bits(w.Offset) || bits(g.Cost) != bits(w.Cost) ||
			bits(g.ScaleX) != bits(w.ScaleX) || bits(g.ScaleY) != bits(w.ScaleY) {
			return "detection differs"
		}
	}
	return ""
}

// randomCandidates draws matches uniformly over a small identifier space,
// so identifiers collect observations by chance only.
func randomCandidates(r *rand.Rand) []Candidate {
	cands := make([]Candidate, 1+r.Intn(40))
	for j := range cands {
		c := Candidate{TC: uint32(r.Intn(5000)), X: float64(r.Intn(90)), Y: float64(r.Intn(70))}
		for k := r.Intn(12); k > 0; k-- {
			c.Matches = append(c.Matches, Match{
				ID: uint32(r.Intn(6)), TC: uint32(r.Intn(5000)),
				X: uint16(r.Intn(90)), Y: uint16(r.Intn(70)),
			})
		}
		cands[j] = c
	}
	return cands
}

// archiveCandidates mimics a clip searched against an archive: many
// identifiers of a few dozen records each, clustered time codes, repeated
// matches of one identifier per candidate, and planted copies whose
// matches follow tc' = tc + b with ±1 jitter, some resized spatially.
func archiveCandidates(r *rand.Rand) []Candidate {
	nIDs := 50 + r.Intn(300)
	recs := 5 + r.Intn(45)
	cands := make([]Candidate, 20+r.Intn(60))
	type plant struct {
		id     uint32
		offset int
		scale  float64
		share  int // percent of candidates carrying the copy
	}
	plants := make([]plant, 1+r.Intn(3))
	for i := range plants {
		plants[i] = plant{id: uint32(r.Intn(nIDs)), offset: r.Intn(4000) - 2000,
			scale: 1 + 0.25*float64(r.Intn(3)), share: 30 + r.Intn(70)}
	}
	for j := range cands {
		tcQ := 3000 + 5*j
		c := Candidate{TC: uint32(tcQ), X: float64(10 + r.Intn(60)), Y: float64(10 + r.Intn(40))}
		for _, p := range plants {
			if r.Intn(100) < p.share {
				c.Matches = append(c.Matches, Match{ID: p.id, TC: uint32(tcQ - p.offset + r.Intn(3) - 1),
					X: uint16(c.X / p.scale), Y: uint16(c.Y / p.scale)})
			}
		}
		for k := 10 + r.Intn(40); k > 0; k-- {
			id := uint32(r.Intn(nIDs))
			base := uint32(id%7) * 1000
			c.Matches = append(c.Matches, Match{ID: id, TC: base + uint32(r.Intn(recs)*3),
				X: uint16(r.Intn(90)), Y: uint16(r.Intn(70))})
			if r.Intn(4) == 0 { // a second record of the same video
				c.Matches = append(c.Matches, Match{ID: id, TC: base + uint32(r.Intn(recs)*3)})
			}
		}
		r.Shuffle(len(c.Matches), func(a, b int) { c.Matches[a], c.Matches[b] = c.Matches[b], c.Matches[a] })
		cands[j] = c
	}
	return cands
}

// tieCandidates places every reference symmetrically around each
// candidate's time code, so opposite offsets have exactly equal residuals
// and costs: the coarse search must keep the first of the tied offsets.
func tieCandidates(r *rand.Rand) []Candidate {
	cands := make([]Candidate, 5+r.Intn(40))
	for j := range cands {
		tcQ := 10000 + 9*j
		c := Candidate{TC: uint32(tcQ), X: float64(r.Intn(50)), Y: float64(r.Intn(50))}
		for id := uint32(0); id < 3; id++ {
			d := 1 + r.Intn(4) + int(id)*20
			if r.Intn(2) == 0 {
				d = -d
			}
			c.Matches = append(c.Matches,
				Match{ID: id, TC: uint32(tcQ - d), X: uint16(r.Intn(50)), Y: uint16(r.Intn(50))},
				Match{ID: id, TC: uint32(tcQ + d), X: uint16(r.Intn(50)), Y: uint16(r.Intn(50))})
		}
		cands[j] = c
	}
	return cands
}

// TestDecideMatchesOracle requires bit-identical Decide and Score output
// from the production path and the oracle over random, archive-shaped
// and tie-heavy inputs, with the spatial extension on and off, at
// several thresholds.
func TestDecideMatchesOracle(t *testing.T) {
	shapes := []struct {
		name string
		gen  func(*rand.Rand) []Candidate
	}{
		{"random", randomCandidates},
		{"archive", archiveCandidates},
		{"ties", tieCandidates},
	}
	for _, sh := range shapes {
		for seed := int64(0); seed < 60; seed++ {
			cands := sh.gen(rand.New(rand.NewSource(seed)))
			for _, spatial := range []float64{0, 3} {
				for _, minVotes := range []int{1, 4, 31} {
					cfg := DefaultConfig()
					cfg.MinVotes = minVotes
					cfg.SpatialTolerance = spatial
					if d := sameDetections(Decide(cands, cfg), oracleDecide(cands, cfg, true)); d != "" {
						t.Fatalf("%s seed %d spatial %v MinVotes %d: Decide %s", sh.name, seed, spatial, minVotes, d)
					}
					if d := sameDetections(Score(cands, cfg), oracleDecide(cands, cfg, false)); d != "" {
						t.Fatalf("%s seed %d spatial %v MinVotes %d: Score %s", sh.name, seed, spatial, minVotes, d)
					}
				}
			}
		}
	}
}

// TestDecideMatchesOracleManyOffsets covers identifiers with more offsets
// than the coarse search evaluates, where the deterministic subsample
// precedes deduplication.
func TestDecideMatchesOracleManyOffsets(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for _, perCand := range []int{20, 30, 60} {
		cands := make([]Candidate, 40)
		for j := range cands {
			tcQ := 20000 + 4*j
			c := Candidate{TC: uint32(tcQ)}
			c.Matches = append(c.Matches, Match{ID: 1, TC: uint32(tcQ - 777)})
			for k := 0; k < perCand; k++ {
				c.Matches = append(c.Matches, Match{ID: 1, TC: uint32(r.Intn(3000))})
			}
			cands[j] = c
		}
		cfg := DefaultConfig()
		if d := sameDetections(Score(cands, cfg), oracleDecide(cands, cfg, false)); d != "" {
			t.Fatalf("%d matches per candidate: %s", perCand, d)
		}
	}
}

// TestGroupByID pins the grouping semantics the estimator depends on:
// per-identifier observations in candidate order, one obs per candidate,
// refs complete.
func TestGroupByID(t *testing.T) {
	cands := []Candidate{
		{TC: 10, X: 1, Y: 2, Matches: []Match{{ID: 5, TC: 100}, {ID: 5, TC: 200}, {ID: 9, TC: 300}}},
		{TC: 20, Matches: []Match{{ID: 9, TC: 400}}},
		{TC: 30, Matches: []Match{{ID: 5, TC: 500}}},
	}
	groups := groupByID(cands)
	if len(groups) != 2 || groups[0].id != 5 || groups[1].id != 9 {
		t.Fatalf("groups: %+v", groups)
	}
	g5 := groups[0]
	if len(g5.obs) != 2 {
		t.Fatalf("id 5 obs: %+v", g5.obs)
	}
	if len(g5.obs[0].refs) != 2 || g5.obs[0].tcQ != 10 || g5.obs[0].qx != 1 {
		t.Fatalf("id 5 first obs: %+v", g5.obs[0])
	}
	if len(g5.obs[1].refs) != 1 || g5.obs[1].tcQ != 30 {
		t.Fatalf("id 5 second obs: %+v", g5.obs[1])
	}
	g9 := groups[1]
	if len(g9.obs) != 2 || g9.obs[0].refs[0].tc != 300 || g9.obs[1].refs[0].tc != 400 {
		t.Fatalf("id 9 obs: %+v", g9.obs)
	}
	if got := groupByID(nil); len(got) != 0 {
		t.Fatalf("empty grouping: %+v", got)
	}

	// The flat grouping agrees with the oracle, and skips identifiers
	// carried by fewer candidates than the threshold.
	var g grouping
	g.build(cands, 1)
	if len(g.ids) != 2 || g.ids[0] != 5 || g.ids[1] != 9 || g.obsEnd[0] != 2 || g.obsEnd[1] != 4 {
		t.Fatalf("flat grouping: ids %v ends %v", g.ids, g.obsEnd)
	}
	for i, want := range append(groups[0].obs, groups[1].obs...) {
		got := g.obs[i]
		refs := g.refs[got.lo:got.hi]
		if got.tcQ != want.tcQ || got.qx != want.qx || len(refs) != len(want.refs) {
			t.Fatalf("flat obs %d: %+v, want %+v", i, got, want)
		}
		for k := range want.refs {
			if refs[k] != want.refs[k] {
				t.Fatalf("flat obs %d ref %d: %+v, want %+v", i, k, refs[k], want.refs[k])
			}
		}
	}
	g = grouping{}
	g.build(cands, 3)
	if len(g.ids) != 0 || len(g.obs) != 0 || len(g.refs) != 0 {
		t.Fatalf("threshold 3 kept %v", g.ids)
	}
}

// archiveClip shapes one clip_detect decision: nCands candidate
// fingerprints, each matching about matchesPer records drawn over nIDs
// videos of up to 50 records, with a copy of video 7 planted in most
// candidates. Half the matches fall on a popular quarter of the videos
// (generic content resembles many clips), so those reach the vote
// threshold by chance and must be estimated.
func archiveClip(nCands, matchesPer, nIDs int) []Candidate {
	r := rand.New(rand.NewSource(5))
	cands := make([]Candidate, nCands)
	for j := range cands {
		tcQ := 100000 + 12*j
		c := Candidate{TC: uint32(tcQ), X: float64(r.Intn(320)), Y: float64(r.Intn(240))}
		if r.Intn(10) < 8 {
			c.Matches = append(c.Matches, Match{ID: 7, TC: uint32(tcQ - 4321 + r.Intn(3) - 1)})
		}
		for k := 0; k < matchesPer; k++ {
			id := r.Intn(nIDs)
			if r.Intn(2) == 0 {
				id = r.Intn(nIDs / 4)
			}
			c.Matches = append(c.Matches, Match{
				ID: uint32(id), TC: uint32(r.Intn(50) * 25),
				X: uint16(r.Intn(320)), Y: uint16(r.Intn(240)),
			})
		}
		cands[j] = c
	}
	return cands
}

// BenchmarkDecideArchive times one clip decision at archive scale: ~126
// candidates with ~1100 matches each over 6000 videos of <= 50 records,
// at the calibrated threshold of 31 votes. The oracle sub-benchmark is
// the unbounded reference on the same input.
func BenchmarkDecideArchive(b *testing.B) {
	cands := archiveClip(126, 1100, 6000)
	cfg := DefaultConfig()
	cfg.MinVotes = 31
	b.Run("Decide", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Decide(cands, cfg)
		}
	})
	b.Run("oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			oracleDecide(cands, cfg, true)
		}
	})
}
