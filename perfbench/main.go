// Command perfbench is the repository benchmark: one process runs one
// workload end to end against the program's packages and prints its
// metrics as one JSON line.
//
//	bash perfbench/run.sh --routed-rate-qps 100 \
//	    --workload clip_detect|routed_query|live_ingest_query \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 it prints the end-to-end metrics of an untraced run; with
// --trace 1 it runs the same operations untraced and then traced, records
// its own spans around the calls into each module, and prints the
// per-layer metrics. Every run writes its full result (host, revision,
// configuration, metrics under their workload-specific names) and, when
// traced, the span file and a self-time report under -work/results.
// README.md in this directory lists the workloads, the metrics and which
// end-to-end metric each per-layer metric is expected to move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef is one metric the benchmark reports; the lists below mirror
// BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"mem_peak_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"latency_p50_ms", "ms"},
	{"throughput_per_s", "1/s"},
}

var perLayer = []metricDef{
	{"fingerprint.extract_ms", "ms"},
	{"fingerprint.locals", "count"},
	{"cbcd.search_ms", "ms"},
	{"vote.decide_ms", "ms"},
	{"vote.matches_in", "count"},
	{"core.plan_us", "us"},
	{"core.refine_us", "us"},
	{"core.descent_nodes", "count"},
	{"core.blocks", "count"},
	{"core.filter_iters", "count"},
	{"core.candidates", "count"},
	{"core.match_ratio", "ratio"},
	{"core.plan_cache_hit_ratio", "ratio"},
	{"core.ingest_us_per_record", "us"},
	{"store.seal_ms", "ms"},
	{"store.compact_ms", "ms"},
	{"store.segments", "count"},
	{"store.cache_hit_ratio", "ratio"},
	{"store.disk_bytes_per_query", "bytes"},
	{"store.sketch_skip_ratio", "ratio"},
	{"store.quantized_reject_ratio", "ratio"},
	{"hilbert.encode_ns", "ns"},
	{"httpapi.handler_self_us", "us"},
	{"httpapi.response_bytes", "bytes"},
	{"router.self_us", "us"},
	{"router.fanout", "count"},
	{"router.retries", "count"},
	{"router.hedges", "count"},
	{"router.hedge_wins", "count"},
	{"net.wait_us", "us"},
	{"bench.generator_late_ms", "ms"},
	{"bench.trace_overhead_ratio", "ratio"},
}

// config is the benchmark invocation.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	work      string
	routedQPS float64
}

// setupReps is the number of set-ups an untraced run performs; setup_s is
// their median. A traced run sets up once.
const setupReps = 3

// outcome is what a workload hands back: operation counts, the metrics of
// the run (end-to-end or per-layer, by name), extra figures under the
// workload's own names for the result file, and for traced runs the spans
// plus the self-time table.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	extra             map[string]any
	spans             []span
	layers            []layerTime
	opTotalNs         int64
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{metrics: map[string]float64{}, extra: map[string]any{}}
}

func main() {
	cfg := config{}
	flag.StringVar(&cfg.workload, "workload", "", "clip_detect, routed_query or live_ingest_query")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed generates the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.work, "work", ".bench_build", "directory for results and scratch data")
	flag.Float64Var(&cfg.routedQPS, "routed-rate-qps", 0, "open-loop request rate of routed_query (fixed in BENCHMARK.json)")
	flag.Parse()
	cfg.trace = *trace == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %v", cfg.seconds)
	}
	var fn func(config) (*outcome, error)
	switch cfg.workload {
	case "clip_detect":
		fn = runClipDetect
	case "routed_query":
		if cfg.routedQPS <= 0 {
			return errors.New("routed_query needs --routed-rate-qps > 0")
		}
		fn = runRoutedQuery
	case "live_ingest_query":
		fn = runLiveIngestQuery
	default:
		return fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if err := os.MkdirAll(filepath.Join(cfg.work, "results"), 0o755); err != nil {
		return err
	}
	start := time.Now()
	out, err := fn(cfg)
	if err != nil {
		return err
	}
	if out.attempted < 1 {
		return errors.New("no operation was attempted")
	}
	out.metrics["ok_ratio"] = 1 - float64(out.failed)/float64(out.attempted)
	return emit(cfg, out, time.Since(start))
}

// emit writes the result file (and span file and report when traced) and
// prints the contract's JSON line last.
func emit(cfg config, out *outcome, wall time.Duration) error {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	metrics := map[string]map[string]any{}
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured", cfg.workload, d.name)
		}
		metrics[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", cfg.workload, cfg.seed, map[bool]int{false: 0, true: 1}[cfg.trace])
	dir := filepath.Join(cfg.work, "results")
	full := map[string]any{
		"workload":     cfg.workload,
		"seed":         cfg.seed,
		"seconds":      cfg.seconds,
		"trace":        cfg.trace,
		"wall_s":       wall.Seconds(),
		"host":         hostInfo(),
		"revision":     revision(),
		"attempted":    out.attempted,
		"failed":       out.failed,
		"metrics":      metrics,
		"workload_fig": out.extra,
	}
	if cfg.routedQPS > 0 {
		full["routed_rate_qps"] = cfg.routedQPS
	}
	if cfg.trace {
		spanPath := filepath.Join(dir, base+".spans.jsonl")
		if err := writeJSONL(spanPath, out.spans); err != nil {
			return err
		}
		full["span_file"] = spanPath
		full["layers"] = out.layers
		reportPath := filepath.Join(dir, base+".report.txt")
		if err := os.WriteFile(reportPath, []byte(traceReport(cfg, out)), 0o644); err != nil {
			return err
		}
		full["report_file"] = reportPath
	}
	raw, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), raw, 0o644); err != nil {
		return err
	}
	// Human-readable lines first: every scalar figure under its workload
	// name (sample lists and tables are in the result file).
	keys := make([]string, 0, len(out.extra))
	for k := range out.extra {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		switch v := out.extra[k].(type) {
		case int, int64, float64, string, bool:
			fmt.Printf("# %s %s = %v\n", cfg.workload, k, v)
		}
	}
	for _, n := range out.notes {
		fmt.Printf("# note: %s\n", n)
	}
	line, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// traceReport renders the per-layer self-time table of a traced run, with
// every share given against its base.
func traceReport(cfg config, out *outcome) string {
	var b strings.Builder
	fmt.Fprintf(&b, "perfbench traced run: workload=%s seed=%d seconds=%v\n", cfg.workload, cfg.seed, cfg.seconds)
	h := hostInfo()
	fmt.Fprintf(&b, "host: nproc=%v GOMAXPROCS=%v go=%v revision=%v\n\n", h["nproc"], h["gomaxprocs"], h["go"], revision())
	fmt.Fprintf(&b, "time per layer over %d traced ops; base of every share = summed op time %.3f ms\n",
		len(spansNamed(out.spans, "op")), float64(out.opTotalNs)/1e6)
	fmt.Fprintf(&b, "self = span time minus the union of its children (concurrent children each count);\n")
	fmt.Fprintf(&b, "wall = each instant of an op given to one layer, split evenly among concurrent children\n")
	fmt.Fprintf(&b, "%-24s %15s %7s %8s %15s %8s\n", "layer", "self", "spans", "share", "wall", "share")
	selfSum, wallSum := 0.0, 0.0
	for _, l := range out.layers {
		fmt.Fprintln(&b, l.String())
		selfSum += l.Share
		wallSum += l.WallShare
	}
	fmt.Fprintf(&b, "%-24s %15s %7s %7.2f%% %15s %7.2f%%\n", "sum", "", "", 100*selfSum, "", 100*wallSum)
	fmt.Fprintf(&b, "bench.trace_overhead_ratio = %.4f (traced / untraced op time)\n\n", out.metrics["bench.trace_overhead_ratio"])
	fmt.Fprintf(&b, "per-layer metrics:\n")
	for _, d := range perLayer {
		fmt.Fprintf(&b, "  %-30s %14.4f %s\n", d.name, out.metrics[d.name], d.unit)
	}
	if len(out.notes) > 0 {
		fmt.Fprintf(&b, "\nnotes (bases of the ratios and what a 0 means):\n")
		for _, n := range out.notes {
			fmt.Fprintf(&b, "  - %s\n", n)
		}
	}
	return b.String()
}

// hostInfo records the machine the figures come from.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// revision identifies the measured code: the git commit when the run is
// inside a git work tree, and always a digest of the repository's Go
// sources and module files, which also identifies a checkout exported
// without git metadata.
func revision() map[string]string {
	rev := map[string]string{"git": "none", "source_sha256": sourceDigest(".")}
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			rev["git"] = strings.TrimSpace(string(out))
		}
	}
	return rev
}

// sourceDigest hashes the path and content of every .go, go.mod and .sh
// file under root, skipping the benchmark's work directory and VCS data.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); n == ".git" || n == ".bench_build" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && d.Name() != "go.mod" && !strings.HasSuffix(p, ".sh") {
			return nil
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// memSampleEvery is how often memPeak samples the resident set size.
const memSampleEvery = 5 * time.Millisecond

// memPeak is the peak resident set size of the process over a workload's
// measured phase. A workload drops its inputs and oracle data that the
// program does not hold before it starts one, and ends it before its
// end-of-run oracle runs, so the figure is the program's memory (its
// index, caches and serving state) plus the load generator's queue, not
// the benchmark's own data or the set-up's transient peak.
type memPeak struct {
	start float64 // MB resident when sampling began
	stop  chan struct{}
	peak  chan float64
}

// releaseMemory returns the memory of dropped inputs to the OS, so that
// the samples start from what is live.
func releaseMemory() { debug.FreeOSMemory() }

// startMemPeak samples VmRSS until end.
func startMemPeak() *memPeak {
	p := &memPeak{start: rssMB(), stop: make(chan struct{}), peak: make(chan float64, 1)}
	go func() {
		peak := p.start
		t := time.NewTicker(memSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				p.peak <- max(peak, rssMB())
				return
			case <-t.C:
				peak = max(peak, rssMB())
			}
		}
	}()
	return p
}

// end stops the sampling, records the resident size at the start and the
// peak under the workload's own names, and returns the peak in MB.
func (p *memPeak) end(out *outcome) float64 {
	close(p.stop)
	peak := <-p.peak
	out.extra["rss_measured_start_mb"] = p.start
	out.extra["rss_measured_peak_mb"] = peak
	return peak
}

// rssMB reads the process's resident set size (VmRSS) in MB.
func rssMB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if strings.HasPrefix(line, "VmRSS:") {
			f := strings.Fields(line)
			if len(f) >= 2 {
				kb, err := strconv.ParseFloat(f[1], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}
