package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"s3cbcd/internal/cbcd"
	"s3cbcd/internal/experiments"
	"s3cbcd/internal/fingerprint"
	"s3cbcd/internal/obs"
	"s3cbcd/internal/store"
	"s3cbcd/internal/vidsim"
	"s3cbcd/internal/vote"
)

// clip_detect: a 100-frame clip in, a copy decision out — the paper's
// real-time monitoring path (Figs 8–9). The static index holds the
// reference videos padded with distractor fingerprints; one closed-loop
// client calls Detector.DetectClip on a fixed list of clips, each an
// excerpt of a reference under one of the paper's five transformations,
// or a clean clip that copies nothing.
const (
	clipRefs        = 12     // reference videos in the index
	clipRefFrames   = 220    // frames per reference video
	clipFrames      = 100    // frames per candidate clip
	clipDistractors = 298000 // distractor records: about 300k records in all
	clipCleanEvery  = 6      // every 6th clip is clean; the 5 before it are one copy under each transformation
	clipCleans      = 6      // clean clips, recurring in turn
	clipCalibs      = 12     // clean clips the threshold is calibrated on, distinct from the above
	clipRecallFloor = 0.7    // a run whose recall is below this fails every missed copy
	clipStrata      = 4      // start-position strata per reference
	clipMinOps      = 100    // decisions per run (per half of a traced run) at least
	clipTolerance   = 2.5    // frames a detected offset may miss the planted one by
	clipProbes      = 4      // queries per traced clip whose plan/refine split is probed
)

// clipKinds are the transformations of the copy clips, one of each of
// the paper's five families, each at a strength of the reduced-scale
// sweep of Figs 8–9 (experiments.families).
var clipKinds = []func(seed int64) vidsim.Transform{
	func(int64) vidsim.Transform { return vidsim.Resize{Scale: 0.9} },
	func(int64) vidsim.Transform { return vidsim.VShift{Frac: 0.1} },
	func(int64) vidsim.Transform { return vidsim.Gamma{G: 1.5} },
	func(int64) vidsim.Transform { return vidsim.Contrast{Factor: 1.5} },
	func(s int64) vidsim.Transform { return vidsim.Noise{Sigma: 10, Seed: s} },
}

// candidateClip is one planted input: a transformed excerpt of reference
// ref starting at frame start, or a clean clip (ref < 0).
type candidateClip struct {
	seq   *vidsim.Sequence
	ref   int
	start int
	kind  string
}

// clipInputs are the generated inputs. The reference archive, the
// calibration clips and the clean clips are the same for every seed, as a
// deployment's archive and its calibration material are; the seed draws
// the distractor records, which excerpts are copied and the
// transformations' noise. Copy clips are distinct: clip i is generated
// from (seed, i) just before it is decided, so a run averages over as many
// excerpts as it decides. Every clipCleanEvery-th clip is one of the clean
// clips, which are generated apart from the calibration clips: the
// threshold never saw them, so a detection on one is a false alarm the
// calibration did not rule out.
//
// refs, distractors and calib feed the set-up only. An untraced run drops
// them before it measures, so that the run holds one reference video and
// one clip at a time besides the program's own data.
type clipInputs struct {
	seed        int64
	refs        []*vidsim.Sequence
	distractors []store.Record
	calib       []*vidsim.Sequence
	cachedRef   int // reference held in cached (when refs is dropped)
	cached      *vidsim.Sequence
}

// clipArchiveSeed generates the reference archive and the clean clips.
const clipArchiveSeed = 20050405

// sequence generates a synthetic video as experiments.VideoCorpus does.
func sequence(seed int64, frames int) *vidsim.Sequence {
	c := vidsim.DefaultConfig(seed)
	c.MinShot, c.MaxShot = 25, 50
	return vidsim.Generate(c, frames)
}

func cleanClip(j int) *vidsim.Sequence { return sequence(clipArchiveSeed+2000+int64(j), clipFrames) }

func makeClipInputs(seed int64) *clipInputs {
	in := &clipInputs{seed: seed, cachedRef: -1}
	for k := 0; k < clipRefs; k++ {
		in.refs = append(in.refs, sequence(clipArchiveSeed+int64(k), clipRefFrames))
	}
	in.distractors = experiments.FPCorpus(clipDistractors, seed*7919+12)
	for i := range in.distractors {
		in.distractors[i].ID += 1000 // above the reference ids 1..clipRefs
	}
	for j := 0; j < clipCalibs; j++ {
		in.calib = append(in.calib, sequence(clipArchiveSeed+1000+int64(j), clipFrames))
	}
	return in
}

// dropSetupInputs releases what only the set-up needs.
func (in *clipInputs) dropSetupInputs() {
	in.refs, in.distractors, in.calib = nil, nil, nil
}

// reference returns reference video k, regenerating it once the set-up
// inputs are dropped (clips come in runs of one reference).
func (in *clipInputs) reference(k int) *vidsim.Sequence {
	if in.refs != nil {
		return in.refs[k]
	}
	if in.cachedRef != k {
		in.cached, in.cachedRef = sequence(clipArchiveSeed+int64(k), clipRefFrames), k
	}
	return in.cached
}

// byID regenerates a clip from the identity clip returned.
func (in *clipInputs) byID(id int) candidateClip {
	if id < 0 {
		return candidateClip{seq: cleanClip(-1 - id), ref: -1, kind: "clean"}
	}
	c, _ := in.clip(id)
	return c
}

// clip returns the i-th clip of the run's sequence and its identity for
// the repeat check (clean clips recur, copies do not). Clips come in
// blocks of clipCleanEvery: one copy under each transformation of one
// reference, then a clean clip.
func (in *clipInputs) clip(i int) (candidateClip, int) {
	b, k := i/clipCleanEvery, i%clipCleanEvery
	if k == len(clipKinds) {
		j := b % clipCleans
		return candidateClip{seq: cleanClip(j), ref: -1, kind: "clean"}, -1 - j
	}
	// Copies are stratified so every run covers the archive evenly: block
	// b copies reference b mod 12, and its copy under transformation k
	// starts in stratum (b/12 + k) mod clipStrata of the reference's
	// timeline, at a seeded offset inside the stratum. Clip cost varies
	// several-fold with content; even coverage keeps that out of the
	// run-to-run spread.
	r := rand.New(rand.NewSource(in.seed*7919 + 1000003*int64(i+1)))
	ref := b % clipRefs
	width := (clipRefFrames - clipFrames) / clipStrata
	start := ((b/clipRefs+k)%clipStrata)*width + r.Intn(width)
	src := in.reference(ref)
	ex := &vidsim.Sequence{FPS: src.FPS, Frames: append([]*vidsim.Frame(nil), src.Frames[start:start+clipFrames]...)}
	tf := clipKinds[k](r.Int63())
	return candidateClip{seq: vidsim.ApplySeq(tf, ex), ref: ref, start: start, kind: tf.Name()}, i
}

// buildDetector is the timed set-up: index the references (their
// fingerprint extraction is part of indexing) and the distractors, then
// calibrate the decision threshold on clean clips.
func buildDetector(in *clipInputs) (*cbcd.Detector, error) {
	cfg := cbcd.DefaultConfig()
	cfg.Workers = runtime.GOMAXPROCS(0)
	ix := cbcd.NewIndexer(cfg)
	for i, seq := range in.refs {
		ix.AddSequence(uint32(i+1), seq)
	}
	ix.AddRecords(in.distractors)
	det, err := ix.Build()
	if err != nil {
		return nil, err
	}
	thr, err := cbcd.CalibrateThreshold(det, in.calib)
	if err != nil {
		return nil, err
	}
	det.SetVoteThreshold(thr)
	return det, nil
}

// judge scores one decision against the planted clip: a copy is hit when
// a detection names its reference with the planted offset; any detection
// on a clean clip is a false alarm.
func (c candidateClip) judge(dets []vote.Detection) (hit, falseAlarm bool) {
	if c.ref < 0 {
		return false, len(dets) > 0
	}
	want := -float64(c.start)
	for _, d := range dets {
		if d.ID == uint32(c.ref+1) && math.Abs(d.Offset-want) <= clipTolerance {
			return true, false
		}
	}
	return false, false
}

// decisionKey renders a decision list exactly (offset bits included), for
// comparing two decisions on the same clip.
func decisionKey(dets []vote.Detection) string {
	var b strings.Builder
	for _, d := range dets {
		fmt.Fprintf(&b, "%d:%d:%x;", d.ID, d.Votes, math.Float64bits(d.Offset))
	}
	return b.String()
}

// clipTally accumulates the run's decisions and their checks. A decision
// fails when DetectClip errs, when it alarms on a clean clip, when a
// repeat of a clip decides differently from its first run, when it
// differs from the reference path (refCheck), or when it misses a copy in
// a run whose recall is below the floor (gateRecall).
type clipTally struct {
	latMs                     []float64
	copies, hits, clean, fals int
	attempted, failed         int
	videoSeconds              float64
	first                     map[int]string // clip index → first decision
	sameAsFirst               map[int]int    // clip index → ops that decided as the first
	missed                    map[string]int // transformation → missed copies
}

// recall is the share of copy clips detected with the right id and offset.
func (t *clipTally) recall() float64 {
	return float64(t.hits) / float64(max(t.copies, 1))
}

// gateRecall fails every missed copy when the run's recall is below
// clipRecallFloor. The method misses some copies at these strengths (the
// clean clips' tail sets a high threshold), so a single miss is not a
// failure; a run that misses more than the floor allows is.
func (t *clipTally) gateRecall() {
	if t.copies > 0 && t.recall() < clipRecallFloor {
		t.failed += t.copies - t.hits
	}
}

func (t *clipTally) note(idx int, c candidateClip, dets []vote.Detection, err error, lat time.Duration) {
	t.attempted++
	t.latMs = append(t.latMs, ms(lat))
	t.videoSeconds += float64(c.seq.Len()) / float64(c.seq.FPS)
	if c.ref >= 0 {
		t.copies++
	} else {
		t.clean++
	}
	if err != nil {
		t.failed++
		return
	}
	hit, fa := c.judge(dets)
	if hit {
		t.hits++
	} else if c.ref >= 0 {
		if t.missed == nil {
			t.missed = map[string]int{}
		}
		t.missed[c.kind]++
	}
	if fa {
		t.fals++
		t.failed++
		return
	}
	if t.first == nil {
		t.first, t.sameAsFirst = map[int]string{}, map[int]int{}
	}
	key := decisionKey(dets)
	if f, seen := t.first[idx]; !seen {
		t.first[idx] = key
	} else if f != key {
		t.failed++
		return
	}
	t.sameAsFirst[idx]++
}

// refCheck recomputes the decision of one clip of each kind through the
// plain single-node path — core.Index.SearchStat per fingerprint, then
// vote.Decide — and fails every op whose decision on that clip differed.
// It returns the number of clips checked.
func (t *clipTally) refCheck(det *cbcd.Detector, in *clipInputs) (int, error) {
	ix := det.Index()
	sq := det.Query()
	cfg := det.Config()
	ids := make([]int, 0, len(t.first))
	for id := range t.first {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	seenKind := map[string]bool{}
	checked := 0
	for _, idx := range ids {
		key := t.first[idx]
		c := in.byID(idx)
		if seenKind[c.kind] {
			continue
		}
		seenKind[c.kind] = true
		locals := fingerprint.Extract(c.seq, cfg.Fingerprint)
		cands := make([]vote.Candidate, len(locals))
		for i, l := range locals {
			ms, _, err := ix.SearchStat(l.FP[:], sq)
			if err != nil {
				return checked, err
			}
			cands[i] = vote.Candidate{TC: l.TC, X: l.X, Y: l.Y}
			for _, m := range ms {
				cands[i].Matches = append(cands[i].Matches, vote.Match{ID: m.ID, TC: m.TC, X: m.X, Y: m.Y})
			}
		}
		checked++
		if decisionKey(vote.Decide(cands, cfg.Vote)) != key {
			t.failed += t.sameAsFirst[idx]
		}
	}
	return checked, nil
}

func runClipDetect(cfg config) (*outcome, error) {
	t0 := time.Now()
	in := makeClipInputs(cfg.seed)
	inputS := time.Since(t0).Seconds()
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var det *cbcd.Detector
	var setups []float64
	for i := 0; i < reps; i++ {
		det = nil
		runtime.GC()
		t0 := time.Now()
		d, err := buildDetector(in)
		if err != nil {
			return nil, fmt.Errorf("clip_detect set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		det = d
	}
	out := newOutcome()
	out.metrics["setup_s"] = median(setups)
	out.extra["setup_s_samples"] = setups
	out.extra["input_generation_s"] = inputS
	out.extra["db_records"] = det.Index().DB().Len()
	out.extra["vote_threshold"] = det.Config().Vote.MinVotes
	// Warm the engine's pooled query contexts before timing.
	if _, err := det.DetectClip(in.calib[0]); err != nil {
		return nil, err
	}
	if cfg.trace {
		return out, clipTraced(cfg, det, in, out)
	}
	in.dropSetupInputs()
	releaseMemory()
	mem := startMemPeak()
	var t clipTally
	dur := seconds(cfg.seconds)
	busy := time.Duration(0)
	// Decide for the run's seconds, and at least clipMinOps clips so that
	// p90 has ten samples beyond it.
	for i := 0; busy < dur || i < clipMinOps; i++ {
		c, id := in.clip(i)
		t0 := time.Now()
		dets, err := det.DetectClip(c.seq)
		lat := time.Since(t0)
		busy += lat
		t.note(id, c, dets, err, lat)
	}
	out.metrics["mem_peak_mb"] = mem.end(out)
	checked, err := t.refCheck(det, in)
	if err != nil {
		return nil, fmt.Errorf("clip_detect reference check: %w", err)
	}
	t.gateRecall()
	out.extra["reference_checked_clips"] = checked
	out.attempted, out.failed = t.attempted, t.failed
	p90, enough := tailPercentile(t.latMs, 0.90)
	if !enough {
		out.notes = append(out.notes, fmt.Sprintf("latency p90 has fewer than %d samples beyond it (%d clips)", minTail, len(t.latMs)))
	}
	out.metrics["latency_p50_ms"] = median(t.latMs)
	out.extra["latency_p90_ms"] = p90
	out.metrics["throughput_per_s"] = float64(t.attempted) / busy.Seconds()
	out.extra["clips"] = t.attempted
	out.extra["latency_ms_samples"] = rounded(t.latMs)
	out.extra["speed_factor"] = t.videoSeconds / busy.Seconds()
	out.extra["recall"] = t.recall()
	out.extra["recall_floor"] = clipRecallFloor
	out.extra["copy_clips"] = t.copies
	out.extra["clean_clips"] = t.clean
	out.extra["false_alarms"] = t.fals
	out.extra["missed_by_kind"] = t.missed
	out.extra["error_ratio"] = float64(t.failed) / float64(t.attempted)
	out.notes = append(out.notes, "throughput_per_s is clip decisions per second of decision time (speed_factor = video seconds decided per second); clip generation between decisions is not timed")
	return out, nil
}

// clipTraced decides the same clip sequence twice, one clip at a time:
// untraced for half the time and at least clipMinOps clips (so the recall
// gate sees as many copies as in an untraced run), then traced, recording
// spans around
// fingerprint.Extract, Detector.SearchLocals and vote.Decide. After each
// traced clip (outside its op) a few of its queries are probed with
// Engine.PlanStat and Engine.SearchStat for the plan/refine split.
func clipTraced(cfg config, det *cbcd.Detector, in *clipInputs, out *outcome) error {
	half := seconds(cfg.seconds / 2)
	var untraced []float64
	busy := time.Duration(0)
	for i := 0; busy < half || i < clipMinOps; i++ {
		c, _ := in.clip(i)
		t0 := time.Now()
		_, err := det.DetectClip(c.seq)
		d := time.Since(t0)
		busy += d
		untraced = append(untraced, float64(d))
		if err != nil {
			return err
		}
	}
	rec := newRecorder()
	eng := det.Engine()
	sq := det.Query()
	fcfg := det.Config().Fingerprint
	vcfg := det.Config().Vote
	ctx := context.Background()
	var t clipTally
	var traced []float64
	var locals, matchesIn, descent, blocks, cands, iters, probes float64
	var planNs, refineNs []float64
	for i := range untraced {
		c, id := in.clip(i)
		opID := rec.newOp()
		op := rec.start("op", 0, opID)
		t0 := time.Now()
		sp := rec.start("fingerprint", op, opID)
		ls := fingerprint.Extract(c.seq, fcfg)
		rec.end(sp)
		tr := obs.NewTrace()
		sp = rec.start("cbcd", op, opID)
		cs, err := det.SearchLocalsCtx(obs.WithTrace(ctx, tr), ls)
		rec.end(sp)
		var dets []vote.Detection
		if err == nil {
			sp = rec.start("vote", op, opID)
			dets = vote.Decide(cs, vcfg)
			rec.end(sp)
		}
		lat := time.Since(t0)
		rec.end(op)
		traced = append(traced, float64(lat))
		t.note(id, c, dets, err, lat)
		if err != nil {
			continue
		}
		rep := tr.Report()
		locals += float64(len(ls))
		for _, cd := range cs {
			matchesIn += float64(len(cd.Matches))
		}
		descent += float64(rep.DescentNodes)
		blocks += float64(rep.Blocks)
		cands += float64(rep.Candidates)
		// Plan/refine probe, a separate op so it never counts as clip time.
		probeID := rec.newOp()
		pr := rec.start("probe", 0, probeID)
		for k := 0; k < clipProbes && k < len(ls); k++ {
			q := ls[k*len(ls)/clipProbes].FP[:]
			t1 := time.Now()
			s1 := rec.start("core.plan", pr, probeID)
			plan, err := eng.PlanStat(ctx, q, sq)
			rec.end(s1)
			t2 := time.Now()
			s2 := rec.start("core.search", pr, probeID)
			_, _, err2 := eng.SearchStat(ctx, q, sq)
			rec.end(s2)
			t3 := time.Now()
			if err != nil || err2 != nil {
				return fmt.Errorf("plan/refine probe: %v %v", err, err2)
			}
			planNs = append(planNs, float64(t2.Sub(t1)))
			refineNs = append(refineNs, float64(t3.Sub(t2)-t2.Sub(t1)))
			iters += float64(plan.FilterIters)
			probes++
		}
		rec.end(pr)
	}
	if _, err := t.refCheck(det, in); err != nil {
		return fmt.Errorf("clip_detect reference check: %w", err)
	}
	t.gateRecall()
	out.extra["recall"] = t.recall()
	encodeNs := encodeNsPerKey(rec, det.Index().DB().Curve(), in.distractors)
	spans := rec.snapshot()
	out.spans = spans
	out.layers, out.opTotalNs = selfTimes(spans, "op")
	out.attempted, out.failed = t.attempted, t.failed
	n := float64(t.attempted - t.failed)
	if n == 0 || locals == 0 || probes == 0 {
		return fmt.Errorf("clip_detect: no clip completed in the traced run")
	}
	m := out.metrics
	zeroAll(m)
	m["fingerprint.extract_ms"] = mean(spanDurations(spans, "fingerprint")) / 1e6
	m["fingerprint.locals"] = locals / n
	m["cbcd.search_ms"] = mean(spanDurations(spans, "cbcd")) / 1e6
	m["vote.decide_ms"] = mean(spanDurations(spans, "vote")) / 1e6
	m["vote.matches_in"] = matchesIn / n
	m["core.plan_us"] = mean(planNs) / 1e3
	m["core.refine_us"] = mean(refineNs) / 1e3
	m["core.descent_nodes"] = descent / locals
	m["core.blocks"] = blocks / locals
	m["core.filter_iters"] = iters / probes
	m["core.candidates"] = cands / locals
	m["core.match_ratio"] = ratio(matchesIn, cands)
	m["hilbert.encode_ns"] = encodeNs
	m["bench.trace_overhead_ratio"] = sum(traced) / sum(untraced)
	out.extra["ops_traced"] = len(traced)
	out.extra["probe_queries"] = probes
	out.notes = append(out.notes,
		"per clip: fingerprint.*, cbcd.search_ms, vote.*; per query (base = fingerprints searched): core.descent_nodes, core.blocks, core.candidates",
		fmt.Sprintf("core.plan_us / core.refine_us / core.filter_iters: %d probed queries, refine = SearchStat minus PlanStat on the same query", int(probes)),
		"core.match_ratio = matches handed to the vote / candidates refined",
		"bench.trace_overhead_ratio = traced op time / untraced op time over the same clip sequence",
		"0 = layer not on this path: plan cache (the detector's engine runs without it), live index, cold tier, HTTP, router")
	return nil
}

// zeroAll sets every per-layer metric to 0, the value of a layer the
// workload does not exercise; workloads then fill in what they measure.
func zeroAll(m map[string]float64) {
	for _, d := range perLayer {
		m[d.name] = 0
	}
}
