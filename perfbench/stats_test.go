package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = float64(100 - i) // unsorted input: 100..1
	}
	cases := []struct {
		q      float64
		want   float64
		beyond int
	}{
		{0.5, 50, 50},
		{0.9, 90, 10},
		{0.99, 99, 1},
		{1, 100, 0},
		{0.001, 1, 99},
	}
	for _, c := range cases {
		v, beyond := percentile(samples, c.q)
		if v != c.want || beyond != c.beyond {
			t.Errorf("percentile(q=%v) = %v with %d beyond, want %v with %d", c.q, v, beyond, c.want, c.beyond)
		}
	}
	if samples[0] != 100 {
		t.Fatal("percentile reordered its input")
	}
	if v, _ := percentile(nil, 0.5); !math.IsNaN(v) {
		t.Errorf("percentile of no samples = %v, want NaN", v)
	}
}

// A tail percentile may be reported only with at least minTail samples
// beyond it: p90 needs 100 samples, p99 needs 1000.
func TestTailPercentileNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n  int
		q  float64
		ok bool
	}{
		{99, 0.90, false},
		{100, 0.90, true},
		{999, 0.99, false},
		{1000, 0.99, true},
		{5000, 0.99, true},
	} {
		s := make([]float64, c.n)
		for i := range s {
			s[i] = float64(i)
		}
		if _, ok := tailPercentile(s, c.q); ok != c.ok {
			t.Errorf("tailPercentile(n=%d, q=%v) ok = %v, want %v", c.n, c.q, ok, c.ok)
		}
	}
}

// In an open loop a stall delays the requests due behind it; timing from
// the due time charges them the wait, and the lateness shows how late
// each was sent.
func TestOpenLoopLatencyFromDueTime(t *testing.T) {
	const rate = 100 // one request due every 10ms
	ms := time.Millisecond
	// One connection. Request 0 stalls for 35ms; the others take 2ms and
	// are sent as soon as the connection is free.
	service := []time.Duration{35 * ms, 2 * ms, 2 * ms, 2 * ms, 2 * ms}
	var ops []openLoopOp
	free := time.Duration(0)
	for i, s := range service {
		due := dueAt(i, rate)
		sent := max(due, free)
		done := sent + s
		free = done
		ops = append(ops, openLoopOp{due: due, sent: sent, done: done})
	}
	lat, late := openLoopLatency(ops)
	wantLat := []float64{35, 27, 19, 11, 3}
	wantLate := []float64{0, 25, 17, 9, 1}
	for i := range ops {
		if math.Abs(lat[i]-wantLat[i]) > 1e-9 || math.Abs(late[i]-wantLate[i]) > 1e-9 {
			t.Errorf("request %d: latency %v late %v, want %v and %v", i, lat[i], late[i], wantLat[i], wantLate[i])
		}
	}
	// Service time alone would have hidden the stall's effect on requests 1–3.
	if lat[1] <= float64(service[1]/ms) {
		t.Errorf("request 1 latency %vms does not include its wait", lat[1])
	}
	if dueAt(250, rate) != 2500*ms {
		t.Errorf("dueAt(250) = %v, want 2.5s", dueAt(250, rate))
	}
}

func TestSelfTimeSubtractsUnionOfChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping children count once", []interval{{10, 40}, {20, 60}}, 50},
		{"nested child", []interval{{10, 60}, {20, 30}}, 50},
		{"clipped to the parent", []interval{{-20, 10}, {90, 150}}, 80},
		{"outside the parent", []interval{{100, 120}, {-10, 0}}, 100},
		{"covers everything", []interval{{0, 50}, {50, 100}}, 0},
		{"unsorted", []interval{{70, 80}, {5, 15}, {12, 20}}, 75},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: selfTime = %d, want %d", c.name, got, c.want)
		}
	}
}

// Only a span's direct children are subtracted; grandchildren are inside
// the child's own time. Wall time splits concurrent children evenly, so
// its shares add up to exactly 1 where self-time shares exceed it.
func TestSelfTimesAndWallShares(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Op: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Op: 1, Name: "router", Start: 10, End: 90},
		{ID: 3, Parent: 2, Op: 1, Name: "backend", Start: 20, End: 60},
		{ID: 4, Parent: 2, Op: 1, Name: "backend", Start: 40, End: 80},
		{ID: 5, Parent: 3, Op: 1, Name: "engine", Start: 25, End: 35},
		{ID: 6, Parent: 0, Op: 2, Name: "probe", Start: 200, End: 300}, // another root name
		{ID: 7, Parent: 0, Op: 3, Name: "op", Start: 400, End: -1},     // unfinished op
	}
	rows, total := selfTimes(spans, "op")
	if total != 100 {
		t.Fatalf("op total = %d, want 100", total)
	}
	self := map[string]int64{}
	wall := map[string]float64{}
	for _, r := range rows {
		self[r.Layer] = r.SelfNs
		wall[r.Layer] = r.WallNs
	}
	wantSelf := map[string]int64{"op": 20, "router": 20, "backend": 30 + 40, "engine": 10}
	for k, v := range wantSelf {
		if self[k] != v {
			t.Errorf("self[%s] = %d, want %d", k, self[k], v)
		}
	}
	if _, ok := self["probe"]; ok {
		t.Error("a span of another root name was counted")
	}
	// router 10..90: alone 10..20 and 80..90 (20); 20..40 backend A only
	// (20, engine 10 of it); 40..60 both (20, half each); 60..80 B only (20).
	wantWall := map[string]float64{"op": 20, "router": 20, "backend": 20 - 10 + 20 + 20, "engine": 10}
	sum := 0.0
	for k, v := range wantWall {
		if math.Abs(wall[k]-v) > 1e-9 {
			t.Errorf("wall[%s] = %v, want %v", k, wall[k], v)
		}
		sum += wall[k]
	}
	if sum != 100 {
		t.Errorf("wall times add up to %v, want the op total 100", sum)
	}
}

func TestWindowRateIsTheMedianWindow(t *testing.T) {
	ms := time.Millisecond
	var done []time.Duration
	// Windows of 100ms: 10, 10, 2 (a stall), 10, 10 completions, plus one
	// past the last whole window.
	for w, n := range []int{10, 10, 2, 10, 10} {
		for i := 0; i < n; i++ {
			done = append(done, time.Duration(w)*100*ms+time.Duration(i)*ms)
		}
	}
	done = append(done, 510*ms)
	if got := windowRate(done, 550*ms, 100*ms); got != 100 {
		t.Errorf("windowRate = %v/s, want 100/s", got)
	}
	if got := windowRate(done[:5], 50*ms, 100*ms); got != 100 {
		t.Errorf("windowRate with no whole window = %v/s, want the overall 100/s", got)
	}
}

// The metric lists the benchmark emits must be the ones BENCHMARK.json
// declares, with the same units, in the same order.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, want []metricDef, got []struct{ Name, Unit string }) {
		if len(want) != len(got) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i := range want {
			if want[i].name != got[i].Name || want[i].unit != got[i].Unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the benchmark %s [%s]",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
}
