package main

import (
	"math"
	"sort"
	"time"
)

// minTail is the number of samples that must lie beyond a reported tail
// percentile: a percentile with fewer samples past it is mostly noise.
const minTail = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of samples
// and the number of samples strictly beyond that rank. samples need not be
// sorted; it is not modified. An empty input gives NaN.
func percentile(samples []float64, q float64) (value float64, beyond int) {
	n := len(samples)
	if n == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return s[rank-1], n - rank
}

// tailPercentile is percentile that also reports whether at least minTail
// samples lie beyond the rank, i.e. whether the figure may be reported.
func tailPercentile(samples []float64, q float64) (float64, bool) {
	v, beyond := percentile(samples, q)
	return v, beyond >= minTail
}

// median is the 0.5 nearest-rank percentile.
func median(samples []float64) float64 {
	v, _ := percentile(samples, 0.5)
	return v
}

// mean returns the arithmetic mean, NaN for no samples.
func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// openLoopOp is one request of an open-loop schedule: when it was due,
// when the generator actually sent it, and when its answer arrived, all
// as offsets from the schedule's start.
type openLoopOp struct {
	due, sent, done time.Duration
}

// dueAt is the due offset of the i-th request of a schedule at rate
// requests per second. It depends only on i and rate, never on how
// earlier requests went, so a stall delays later requests' sends and
// shows in their latency.
func dueAt(i int, rate float64) time.Duration {
	return time.Duration(float64(i) / rate * float64(time.Second))
}

// openLoopLatency returns each request's latency timed from its due time
// (the wait a stall imposes on later requests included) and how late the
// generator sent it, both in milliseconds.
func openLoopLatency(ops []openLoopOp) (latencyMs, lateMs []float64) {
	latencyMs = make([]float64, len(ops))
	lateMs = make([]float64, len(ops))
	for i, op := range ops {
		latencyMs[i] = ms(op.done - op.due)
		late := op.sent - op.due
		if late < 0 {
			late = 0
		}
		lateMs[i] = ms(late)
	}
	return latencyMs, lateMs
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// interval is a half-open time interval [start, end) in nanoseconds.
type interval struct{ start, end int64 }

// selfTime returns the part of parent not covered by any child interval:
// its duration minus the union of the children, each clipped to parent.
// Overlapping children (concurrent sub-calls) are counted once.
func selfTime(parent interval, children []interval) int64 {
	cs := make([]interval, 0, len(children))
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			cs = append(cs, c)
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := int64(0)
	var cur interval
	for i, c := range cs {
		switch {
		case i == 0:
			cur = c
		case c.start <= cur.end:
			if c.end > cur.end {
				cur.end = c.end
			}
		default:
			covered += cur.end - cur.start
			cur = c
		}
	}
	if len(cs) > 0 {
		covered += cur.end - cur.start
	}
	return parent.end - parent.start - covered
}

// windowRate splits [0, total) into whole windows of length w and returns
// the median over the windows of completions per second; completions are
// offsets from the start. A burst that stalls one window moves the median
// less than it moves the overall mean. With no whole window it falls back
// to the overall rate.
func windowRate(done []time.Duration, total, w time.Duration) float64 {
	n := int(total / w)
	if n < 1 {
		return float64(len(done)) / total.Seconds()
	}
	counts := make([]float64, n)
	for _, d := range done {
		if i := int(d / w); i >= 0 && i < n {
			counts[i]++
		}
	}
	return median(counts) / w.Seconds()
}

// rounded returns xs rounded to microsecond precision (for millisecond
// samples), to keep result files small.
func rounded(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = math.Round(x*1000) / 1000
	}
	return out
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
