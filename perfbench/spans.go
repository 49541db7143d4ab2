package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public function of the program. Op groups the spans of one benchmark
// operation; Parent is 0 for the operation's root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps spans in memory for the traced run; they are written out
// when the run ends. A nil *recorder records nothing, so the untraced
// path pays one nil check per call site.
type recorder struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	ops   int64
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// now returns the recorder clock (nanoseconds since the recorder started).
func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// newOp allocates the id grouping one operation's spans.
func (r *recorder) newOp() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops++
	return r.ops
}

// start opens a span and returns its id (0 when r is nil).
func (r *recorder) start(name string, parent, op int64) int64 {
	if r == nil {
		return 0
	}
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: int64(len(r.spans) + 1), Parent: parent, Op: op, Name: name, Start: t, End: -1})
	return int64(len(r.spans))
}

// end closes span id.
func (r *recorder) end(id int64) {
	if r == nil || id == 0 {
		return
	}
	t := r.now()
	r.mu.Lock()
	r.spans[id-1].End = t
	r.mu.Unlock()
}

// add records an already finished span with explicit bounds.
func (r *recorder) add(name string, parent, op, start, end int64) int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: int64(len(r.spans) + 1), Parent: parent, Op: op, Name: name, Start: start, End: end})
	return int64(len(r.spans))
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// writeJSONL writes one span per line.
func writeJSONL(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is one row of the self-time table. SelfNs is the layer's
// self time (span durations minus the union of their children); Share is
// SelfNs over the summed op time. Concurrent children (a router's parallel
// backend calls) each count their own self time, so self-time shares can
// add up to more than 1. WallNs attributes every instant of an op to one
// layer instead, splitting an instant evenly among the children running
// during it, so WallShare adds up to 1 over the layers.
type layerTime struct {
	Layer     string  `json:"layer"`
	SelfNs    int64   `json:"self_ns"`
	Spans     int     `json:"spans"`
	Share     float64 `json:"share_of_op_time"`
	WallNs    float64 `json:"wall_ns"`
	WallShare float64 `json:"wall_share_of_op_time"`
}

// selfTimes attributes the time of every closed root span named root
// (Parent 0) to layers: each span of those ops adds its self time (its
// duration minus the union of its direct children) to its name. The
// shares are given against the summed root-span duration, which is also
// returned. The wall shares add up to 1 by construction; the self-time
// shares add up to more than 1 when children run concurrently (see
// layerTime). Open spans and the spans of unfinished ops are ignored.
func selfTimes(spans []span, root string) ([]layerTime, int64) {
	children := make(map[int64][]interval, len(spans))
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	closedOps := map[int64]bool{}
	var opTotal int64
	for _, s := range spans {
		if s.Parent == 0 && s.End >= 0 && s.Name == root {
			closedOps[s.Op] = true
			opTotal += s.End - s.Start
		}
	}
	rows := map[string]*layerTime{}
	for _, s := range spans {
		if s.End < 0 || !closedOps[s.Op] {
			continue
		}
		row := rows[s.Name]
		if row == nil {
			row = &layerTime{Layer: s.Name}
			rows[s.Name] = row
		}
		row.SelfNs += selfTime(interval{s.Start, s.End}, children[s.ID])
		row.Spans++
	}
	for name, w := range wallTimes(spans, closedOps) {
		rows[name].WallNs = w
	}
	out := make([]layerTime, 0, len(rows))
	for _, row := range rows {
		if opTotal > 0 {
			row.Share = float64(row.SelfNs) / float64(opTotal)
			row.WallShare = row.WallNs / float64(opTotal)
		}
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfNs > out[j].SelfNs })
	return out, opTotal
}

// wallTimes splits the duration of every root span of ops into layers:
// an instant with no child running belongs to the span itself; an instant
// with k children running is split evenly among them, recursively.
func wallTimes(spans []span, ops map[int64]bool) map[string]float64 {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := map[string]float64{}
	var walk func(s span, a, b int64, w float64)
	walk = func(s span, a, b int64, w float64) {
		pts := []int64{a, b}
		var cs []span
		for _, c := range kids[s.ID] {
			if c.Start < b && c.End > a {
				cs = append(cs, c)
				pts = append(pts, max(c.Start, a), min(c.End, b))
			}
		}
		if len(cs) == 0 {
			out[s.Name] += float64(b-a) * w
			return
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
		for i := 0; i+1 < len(pts); i++ {
			p, q := pts[i], pts[i+1]
			if p == q {
				continue
			}
			var active []span
			for _, c := range cs {
				if c.Start <= p && c.End >= q {
					active = append(active, c)
				}
			}
			if len(active) == 0 {
				out[s.Name] += float64(q-p) * w
				continue
			}
			for _, c := range active {
				walk(c, p, q, w/float64(len(active)))
			}
		}
	}
	for _, s := range spans {
		if s.Parent == 0 && s.End >= 0 && ops[s.Op] {
			walk(s, s.Start, s.End, 1)
		}
	}
	return out
}

// spanDurations returns the durations (ns) of closed spans named name.
func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spansNamed(spans, name) {
		out = append(out, float64(s.End-s.Start))
	}
	return out
}

func (l layerTime) String() string {
	return fmt.Sprintf("%-24s %12.3f ms %7d %7.2f%% %12.3f ms %7.2f%%",
		l.Layer, float64(l.SelfNs)/1e6, l.Spans, 100*l.Share, l.WallNs/1e6, 100*l.WallShare)
}

// spansNamed returns the closed spans named name.
func spansNamed(spans []span, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}
