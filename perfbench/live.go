package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"s3cbcd/internal/core"
	"s3cbcd/internal/experiments"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/obs"
	"s3cbcd/internal/store"
)

// live_ingest_query: writes beside reads on a live index larger than its
// block cache. Set-up preloads a core.LiveIndex with s3serve's live
// defaults (sketch, cold codec and plan cache on) and a cold threshold
// that sends every sealed segment cold. During the run a writer ingests a
// fixed record count on a fixed schedule and flushes at fixed points, so
// the final index is the same on every commit, while one closed-loop
// client queries: statistical queries plus a minority of ε-range queries
// at the radius matched to the statistical query's α.
const (
	livePreload      = 300000
	livePreloadBatch = 4096
	liveBatch        = 100     // records per ingest batch
	liveBatchesPerS  = 50      // ingest schedule: 5k records/s
	liveFlushEvery   = 50      // batches between explicit flushes
	liveColdRecords  = 4096    // sealed segments of at least this many records serve cold
	liveCacheBytes   = 4 << 20 // about 10% of the cold bytes (~94 B a record) at the end of a 30 s run
	liveRangeShare   = 0.05    // range queries cost ~10x a statistical one; well under 10% keeps p90 off the cost-mode boundary
	liveAlpha        = 0.8
	liveSigma        = 18
	liveQueryStd     = 10
	liveQueries      = 20000 // distinct queries, cycled
	liveOracleN      = 48    // queries compared with a static index at the end
)

// liveEps is the range radius matched to the statistical query: the
// radius of the ball holding mass α under the isotropic normal model,
// σ·sqrt(χ²_D quantile α) with D = 20, α = 0.8.
var liveEps = liveSigma * math.Sqrt(25.038)

type liveQuery struct {
	q   []byte
	rng bool
	idx int // position in the query list
}

type liveInputs struct {
	preload []store.Record
	ingest  []store.Record
	queries []liveQuery
}

// liveCorpus generates the preload followed by the records the writer
// ingests.
func liveCorpus(cfg config) []store.Record {
	batches := int(cfg.seconds * liveBatchesPerS)
	return experiments.FPCorpus(livePreload+batches*liveBatch, cfg.seed*7919+31)
}

func makeLiveInputs(cfg config) liveInputs {
	all := liveCorpus(cfg)
	// The ingest records get their own array, so that dropping the preload
	// after set-up frees it.
	in := liveInputs{preload: all[:livePreload], ingest: append([]store.Record(nil), all[livePreload:]...)}
	r := rand.New(rand.NewSource(cfg.seed*7919 + 32))
	for i := 0; i < liveQueries; i++ {
		src := all[r.Intn(len(all))].FP
		q := make([]byte, len(src))
		for j, b := range src {
			q[j] = byte(math.Max(0, math.Min(255, math.Round(float64(b)+r.NormFloat64()*liveQueryStd))))
		}
		in.queries = append(in.queries, liveQuery{q: q, rng: r.Float64() < liveRangeShare, idx: i})
	}
	return in
}

// liveIndex is one set-up: the index, its directory, its counting FS and
// a registry holding its metrics.
type liveIndex struct {
	li  *core.LiveIndex
	dir string
	fs  *store.CountingFS
	reg *obs.Registry
}

func (l *liveIndex) close() {
	l.li.Close()
	os.RemoveAll(l.dir)
}

// openPreloaded is the timed set-up: open a fresh live index and ingest
// the preload, then flush and compact it into one cold base segment.
func openPreloaded(dir string, curve *hilbert.Curve, recs []store.Record) (*liveIndex, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	cfs := store.NewCountingFS(store.OSFS)
	li, err := core.OpenLiveIndex(curve, dir, core.LiveOptions{
		FS: cfs, ColdRecords: liveColdRecords, Cache: store.NewBlockCache(liveCacheBytes),
		Sketch: true, ColdCodec: true, PlanCache: true,
	})
	if err != nil {
		return nil, err
	}
	l := &liveIndex{li: li, dir: dir, fs: cfs, reg: obs.NewRegistry()}
	li.RegisterMetrics(l.reg)
	for i := 0; i < len(recs); i += livePreloadBatch {
		if err := li.Ingest(recs[i:min(i+livePreloadBatch, len(recs))]); err != nil {
			l.close()
			return nil, err
		}
	}
	if err := li.Flush(); err != nil {
		l.close()
		return nil, err
	}
	if err := li.Compact(); err != nil {
		l.close()
		return nil, err
	}
	return l, nil
}

// writerResult is the writer's account of the ingest schedule.
type writerResult struct {
	ackMs, lateMs     []float64
	batches, failed   int
	acked             []int // acknowledged batches
	ingestNs, records float64
	flushes           int
	flushFailed       int
}

// runWriter ingests in.ingest in liveBatch batches, batch b due at
// b/liveBatchesPerS seconds after start, flushing every liveFlushEvery
// batches. Each acknowledgement is timed from its due time. When rec is
// armed, every batch is an "ingest" op with "core.ingest" and
// "core.flush" spans.
func runWriter(l *liveIndex, recs []store.Record, start time.Time, rec *recorder) writerResult {
	var w writerResult
	for b := 0; (b+1)*liveBatch <= len(recs); b++ {
		due := dueAt(b, liveBatchesPerS)
		if d := due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		w.lateMs = append(w.lateMs, ms(max(time.Since(start)-due, 0)))
		batch := recs[b*liveBatch : (b+1)*liveBatch]
		opID := rec.newOp()
		op := rec.start("ingest", 0, opID)
		sp := rec.start("core.ingest", op, opID)
		t0 := time.Now()
		err := l.li.Ingest(batch)
		d := time.Since(t0)
		rec.end(sp)
		w.ackMs = append(w.ackMs, ms(time.Since(start)-due))
		w.batches++
		if err != nil {
			w.failed++
		} else {
			w.acked = append(w.acked, b)
			w.ingestNs += float64(d)
			w.records += float64(len(batch))
		}
		if (b+1)%liveFlushEvery == 0 {
			sp := rec.start("core.flush", op, opID)
			w.flushes++
			if err := l.li.Flush(); err != nil {
				w.flushFailed++
			}
			rec.end(sp)
		}
		rec.end(op)
	}
	return w
}

// liveCheck compares the answers of a fixed query sample on the live
// index with a static core.Index rebuilt from the preload and the
// acknowledged batches, regenerated from the seed, as match sets in
// canonical order. It returns the mismatches.
func liveCheck(cfg config, l *liveIndex, curve *hilbert.Curve, acked []int, qs []liveQuery) (int, []string, error) {
	all := liveCorpus(cfg)
	recs := all[:livePreload:livePreload]
	for _, b := range acked {
		recs = append(recs, all[livePreload+b*liveBatch:livePreload+(b+1)*liveBatch]...)
	}
	db, err := store.Build(curve, recs)
	if err != nil {
		return 0, nil, err
	}
	ix, err := core.NewIndex(db, l.li.Depth())
	if err != nil {
		return 0, nil, err
	}
	sq := core.StatQuery{Alpha: liveAlpha, Model: core.IsoNormal{D: 20, Sigma: liveSigma}}
	bad := 0
	var notes []string
	ctx := context.Background()
	for _, q := range qs {
		var got, want []core.Match
		var err1, err2 error
		if q.rng {
			got, _, err1 = l.li.SearchRange(ctx, q.q, liveEps)
			want, _, err2 = ix.SearchRange(q.q, liveEps)
		} else {
			got, _, err1 = l.li.SearchStat(ctx, q.q, sq)
			want, _, err2 = ix.SearchStat(q.q, sq)
		}
		if err1 != nil || err2 != nil {
			return bad, notes, fmt.Errorf("oracle query: %v %v", err1, err2)
		}
		if err := sameMatches(canonical(want), canonical(got)); err != nil {
			bad++
			notes = appendCapped(notes, fmt.Sprintf("live/static mismatch on query %d: %v", q.idx, err))
		}
	}
	return bad, notes, nil
}

// canonical renders matches without their segment-local positions, in
// (id, tc, x, y, dist) order.
func canonical(ms []core.Match) []wireMatch {
	w := toWire(ms)
	sort.Slice(w, func(i, j int) bool {
		a, b := w[i], w[j]
		if a.ID != b.ID {
			return a.ID < b.ID
		}
		if a.TC != b.TC {
			return a.TC < b.TC
		}
		if a.X != b.X {
			return a.X < b.X
		}
		if a.Y != b.Y {
			return a.Y < b.Y
		}
		return a.Dist < b.Dist
	})
	return w
}

// liveTotals are the index counters the per-layer metrics are deltas of.
type liveTotals struct {
	st                   core.LiveStats
	pcHits, pcMisses     int64
	fsRead               int64
	sealSec, sealN       float64
	compactSec, compactN float64
}

func readLive(l *liveIndex) liveTotals {
	t := liveTotals{st: l.li.Stats(), fsRead: l.fs.ReadBytes()}
	if pc, ok := l.li.PlanCacheStats(); ok {
		t.pcHits, t.pcMisses = pc.Hits, pc.Misses
	}
	v := promValues(l.reg)
	t.sealSec, t.sealN = v["s3_live_seal_seconds_sum"], v["s3_live_seal_seconds_count"]
	t.compactSec, t.compactN = v["s3_live_compaction_seconds_sum"], v["s3_live_compaction_seconds_count"]
	return t
}

func runLiveIngestQuery(cfg config) (*outcome, error) {
	t0 := time.Now()
	in := makeLiveInputs(cfg)
	curve, err := hilbert.New(20, 8)
	if err != nil {
		return nil, err
	}
	inputS := time.Since(t0).Seconds()
	reps := setupReps
	if cfg.trace {
		reps = 1
	}
	var l *liveIndex
	var setups []float64
	for i := 0; i < reps; i++ {
		if l != nil {
			l.close()
		}
		runtime.GC()
		dir := filepath.Join(cfg.work, "tmp", fmt.Sprintf("live-%d-%d", os.Getpid(), i))
		t0 := time.Now()
		if l, err = openPreloaded(dir, curve, in.preload); err != nil {
			return nil, fmt.Errorf("live_ingest_query set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer l.close()
	out := newOutcome()
	out.metrics["setup_s"] = median(setups)
	out.extra["setup_s_samples"] = setups
	out.extra["input_generation_s"] = inputS
	out.extra["preload_records"] = livePreload
	out.extra["range_eps"] = liveEps
	sq := core.StatQuery{Alpha: liveAlpha, Model: core.IsoNormal{D: 20, Sigma: liveSigma}}
	ctx := context.Background()

	var rec *recorder
	if cfg.trace {
		rec = newRecorder()
	}
	var mem *memPeak
	if !cfg.trace {
		in.preload = nil // ingested; the oracle regenerates it
		releaseMemory()
		mem = startMemPeak()
	}
	before := readLive(l)
	start := time.Now()
	var wres writerResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		wres = runWriter(l, in.ingest, start, rec)
	}()
	// The query client runs until the writer's schedule is over.
	dur := seconds(cfg.seconds)
	var latMs, tracedNs, untracedNs, planUs, refineUs []float64
	var doneAt []time.Duration
	var qAttempted, qFailed int
	var descent, blocks, cands, matches, iters, statN, segs float64
	for i := 0; time.Since(start) < dur; i++ {
		q := in.queries[i%len(in.queries)]
		traced := rec != nil && i%2 == 1
		var tr *obs.Trace
		qctx := ctx
		var opID, op, sp, base int64
		if traced {
			tr = obs.NewTrace()
			qctx = obs.WithTrace(ctx, tr)
			opID = rec.newOp()
			op = rec.start("op", 0, opID)
			base = rec.now()
			sp = rec.start("live", op, opID)
		}
		t0 := time.Now()
		var ms []core.Match
		var plan core.Plan
		var err error
		if q.rng {
			ms, plan, err = l.li.SearchRange(qctx, q.q, liveEps)
		} else {
			ms, plan, err = l.li.SearchStat(qctx, q.q, sq)
		}
		d := time.Since(t0)
		doneAt = append(doneAt, time.Since(start))
		qAttempted++
		if err != nil {
			qFailed++
		}
		latMs = append(latMs, float64(d)/1e6)
		if rec == nil {
			continue
		}
		if !traced {
			untracedNs = append(untracedNs, float64(d))
			continue
		}
		rec.end(sp)
		rec.end(op)
		tracedNs = append(tracedNs, float64(d))
		rep := tr.Report()
		for _, st := range rep.Stages {
			s := base + st.StartMicros*1000
			switch st.Name {
			case "plan":
				rec.add("core.plan", sp, opID, s, s+st.Micros*1000)
				planUs = append(planUs, float64(st.Micros))
			case "refine":
				rec.add("core.refine", sp, opID, s, s+st.Micros*1000)
				refineUs = append(refineUs, float64(st.Micros))
			}
		}
		descent += float64(rep.DescentNodes)
		blocks += float64(rep.Blocks)
		cands += float64(rep.Candidates)
		matches += float64(len(ms))
		if !q.rng {
			iters += float64(plan.FilterIters)
			statN++
		}
		segs += float64(l.li.Stats().Segments)
	}
	wg.Wait()
	if mem != nil {
		out.metrics["mem_peak_mb"] = mem.end(out)
	}
	after := readLive(l)
	mism, notes, err := liveCheck(cfg, l, curve, wres.acked, in.queries[:liveOracleN])
	if err != nil {
		return nil, err
	}
	out.notes = append(out.notes, notes...)
	out.attempted = qAttempted + wres.batches + wres.flushes + liveOracleN
	out.failed = qFailed + wres.failed + wres.flushFailed + mism
	ing99, _ := percentile(wres.ackMs, 0.99)
	gl99, _ := percentile(wres.lateMs, 0.99)
	out.extra["queries"] = qAttempted
	out.extra["query_qps"] = windowRate(doneAt, dur, time.Second)
	out.extra["ingest_batches"] = wres.batches
	out.extra["ingest_p99_ms"] = ing99
	out.extra["ingested_records"] = len(wres.acked) * liveBatch
	out.extra["segments_end"] = after.st.Segments
	out.extra["cold_records_end"] = after.st.ColdRecords
	out.extra["live_records_end"] = after.st.LiveRecords
	out.extra["compactions"] = after.st.Compactions - before.st.Compactions
	out.extra["oracle_checked"] = liveOracleN
	out.extra["oracle_mismatches"] = mism
	out.extra["error_ratio"] = float64(out.failed) / float64(out.attempted)
	out.extra["writer_late_p99_ms"] = gl99
	if !cfg.trace {
		p99, enough := tailPercentile(latMs, 0.99)
		if !enough {
			out.notes = append(out.notes, fmt.Sprintf("latency p99 has fewer than %d samples beyond it (%d queries)", minTail, len(latMs)))
		}
		p90, _ := percentile(latMs, 0.90)
		out.metrics["latency_p50_ms"] = median(latMs)
		out.extra["latency_p90_ms"] = p90
		out.metrics["throughput_per_s"] = out.extra["query_qps"].(float64)
		out.extra["latency_p99_ms"] = p99
		out.extra["latency_ms_samples"] = rounded(latMs)
		out.notes = append(out.notes, "latency_* per live query (closed loop beside the ingest schedule); throughput_per_s is query_qps, the median over 1 s windows")
		return out, nil
	}
	encodeNs := encodeNsPerKey(rec, curve, in.preload)
	spans := rec.snapshot()
	out.spans = spans
	out.layers, out.opTotalNs = selfTimes(spans, "op")
	wl, wTotal := selfTimes(spans, "ingest")
	out.extra["writer_layers"] = wl
	out.extra["writer_op_total_ms"] = float64(wTotal) / 1e6
	d := after
	n := float64(len(tracedNs))
	m := out.metrics
	zeroAll(m)
	m["core.plan_us"] = mean(planUs)
	m["core.refine_us"] = mean(refineUs)
	m["core.descent_nodes"] = ratio(descent, n)
	m["core.blocks"] = ratio(blocks, n)
	m["core.filter_iters"] = ratio(iters, statN)
	m["core.candidates"] = ratio(cands, n)
	m["core.match_ratio"] = ratio(matches, cands)
	m["core.plan_cache_hit_ratio"] = ratio(float64(d.pcHits-before.pcHits), float64(d.pcHits-before.pcHits+d.pcMisses-before.pcMisses))
	m["core.ingest_us_per_record"] = ratio(wres.ingestNs/1e3, wres.records)
	m["store.seal_ms"] = ratio((d.sealSec-before.sealSec)*1e3, d.sealN-before.sealN)
	m["store.compact_ms"] = ratio((d.compactSec-before.compactSec)*1e3, d.compactN-before.compactN)
	m["store.segments"] = ratio(segs, n)
	hits := float64(d.st.Cache.Hits - before.st.Cache.Hits)
	misses := float64(d.st.Cache.Misses - before.st.Cache.Misses)
	q := float64(qAttempted)
	m["store.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["store.disk_bytes_per_query"] = ratio(float64(d.st.Cache.LoadedBytes-before.st.Cache.LoadedBytes), q)
	m["store.sketch_skip_ratio"] = ratio(float64(d.st.SegmentsSkipped-before.st.SegmentsSkipped), float64(d.st.SketchConsults-before.st.SketchConsults))
	rej := float64(d.st.QuantizedRejects - before.st.QuantizedRejects)
	m["store.quantized_reject_ratio"] = ratio(rej, rej+float64(d.st.FallbackReads-before.st.FallbackReads))
	m["hilbert.encode_ns"] = encodeNs
	m["bench.generator_late_ms"] = gl99
	m["bench.trace_overhead_ratio"] = mean(tracedNs) / mean(untracedNs)
	out.extra["fs_read_bytes_per_query"] = ratio(float64(d.fsRead-before.fsRead), q)
	out.extra["ops_traced"] = len(tracedNs)
	out.notes = append(out.notes,
		"queries alternate untraced/traced; bench.trace_overhead_ratio = mean traced / mean untraced query time",
		"core.plan_us / core.refine_us: the live index's own plan and refine stage times from its trace report, per traced query; descent_nodes, blocks, candidates per traced query; filter_iters per statistical query",
		"core.candidates on the live path counts the matches refinement returned, so core.match_ratio is 1 by construction",
		"store.* are deltas over the whole run (both halves): cache_hit_ratio = hits/(hits+misses); disk_bytes_per_query = block-cache miss bytes per query (single-record fallback reads and compaction reads excluded; fs_read_bytes_per_query in the result file counts every read); sketch_skip_ratio = segments skipped/sketch consults; quantized_reject_ratio = quantized rejects/(rejects + exact fallback reads)",
		"store.seal_ms / store.compact_ms: mean of the index's seal and compaction histograms over the run; core.ingest_us_per_record: Ingest time per acknowledged record",
		"bench.generator_late_ms = p99 of how late the ingest writer started a batch",
		"0 = layer not on this path: fingerprint, cbcd, vote, HTTP, router")
	return out, nil
}
