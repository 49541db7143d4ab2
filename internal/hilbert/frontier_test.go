package hilbert

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// hashFactor derives a deterministic pseudo-random score for a dyadic
// interval of one dimension, mimicking a per-dimension mass factor
// without needing a model. Factors are exact powers of two so that the
// product of a node's factors is the same float64 no matter the order it
// is accumulated in — the test recomputes products when reseeding a
// resumed visitor, and exact arithmetic keeps that recomputation
// bit-identical to the incremental bookkeeping of a fresh descent.
func hashFactor(dim int, lo, hi uint32, seed uint64) float64 {
	h := seed
	h ^= uint64(dim+1) * 0x9e3779b97f4a7c15
	h ^= uint64(lo) * 0xbf58476d1ce4e5b9
	h ^= uint64(hi) * 0x94d049bb133111eb
	h ^= h >> 31
	h *= 0xd6e8feb86659fd93
	h ^= h >> 29
	return 1 / float64(uint64(1)<<(h%4))
}

// scoreVisitor prunes nodes whose factor product is <= t, collecting
// surviving leaves and (through the frontier callback) pruned nodes.
type scoreVisitor struct {
	seed    uint64
	t       float64
	factors []float64
	prod    float64
	stack   []float64
	dims    []int
	leaves  []Interval
}

func newScoreVisitor(dims int, seed uint64, t float64) *scoreVisitor {
	v := &scoreVisitor{seed: seed, t: t, factors: make([]float64, dims), prod: 1}
	for i := range v.factors {
		v.factors[i] = 1
	}
	return v
}

// reseed positions the visitor at a resumed node by recomputing the
// per-dimension factors from the node's bounds.
func (v *scoreVisitor) reseed(lo, hi []uint32, side uint32) {
	v.prod = 1
	v.stack = v.stack[:0]
	v.dims = v.dims[:0]
	for j := range v.factors {
		f := 1.0
		if lo[j] != 0 || hi[j] != side {
			f = hashFactor(j, lo[j], hi[j], v.seed)
		}
		v.factors[j] = f
		v.prod *= f
	}
}

func (v *scoreVisitor) Enter(dim int, lo, hi uint32) bool {
	f := hashFactor(dim, lo, hi, v.seed)
	np := v.prod / v.factors[dim] * f
	if np <= v.t {
		return false
	}
	v.stack = append(v.stack, v.factors[dim])
	v.dims = append(v.dims, dim)
	v.factors[dim] = f
	v.prod = np
	return true
}

func (v *scoreVisitor) Leave(int) {
	last := len(v.stack) - 1
	dim := v.dims[last]
	old := v.stack[last]
	v.stack, v.dims = v.stack[:last], v.dims[:last]
	v.prod = v.prod / v.factors[dim] * old
	v.factors[dim] = old
}

func (v *scoreVisitor) Leaf(b Block) bool {
	v.leaves = append(v.leaves, Interval{Start: b.Start, End: b.End})
	return true
}

// boundsTracker follows a frontier descent's Seek moves, holding the
// current node's bounds.
type boundsTracker struct {
	lo, hi []uint32
}

func newBoundsTracker(c *Curve) *boundsTracker {
	b := &boundsTracker{lo: make([]uint32, c.Dims()), hi: make([]uint32, c.Dims())}
	for j := range b.hi {
		b.hi[j] = c.SideLen()
	}
	return b
}

func (b *boundsTracker) Move(dim int, lo, hi uint32)  { b.lo[dim], b.hi[dim] = lo, hi }
func (*boundsTracker) Enter(int, uint32, uint32) bool { return true }
func (*boundsTracker) Leave(int)                      {}
func (*boundsTracker) Leaf(NodeID) bool               { return true }
func (*boundsTracker) Pruned(NodeID)                  {}

// frontierScore adapts a scoreVisitor to a frontier descent: leaf ids
// become curve intervals, and pruned ids go to pruned when it is set.
type frontierScore struct {
	*scoreVisitor
	c      *Curve
	pruned func(NodeID)
}

func (f frontierScore) Leaf(id NodeID) bool {
	f.leaves = append(f.leaves, f.c.IDSpan(id, id))
	return true
}

func (f frontierScore) Move(int, uint32, uint32) {}

func (f frontierScore) Pruned(id NodeID) {
	if f.pruned != nil {
		f.pruned(id)
	}
}

// TestFrontierRootMatchesDescendSteps checks that a frontier descent from
// the root with no pruning enumerates exactly the DescendSteps leaves.
func TestFrontierRootMatchesDescendSteps(t *testing.T) {
	for _, cfg := range []struct{ dims, order, depth int }{
		{2, 3, 5}, {3, 2, 6}, {4, 2, 8}, {1, 5, 4}, {5, 2, 7},
	} {
		c := MustNew(cfg.dims, cfg.order)
		want := newScoreVisitor(cfg.dims, 0, -1) // t < 0: keep everything
		c.DescendSteps(cfg.depth, want)

		got := newScoreVisitor(cfg.dims, 0, -1)
		fd := c.NewFrontierDescent()
		fd.Descend(cfg.depth, frontierScore{got, c, nil})

		if len(want.leaves) != len(got.leaves) {
			t.Fatalf("%+v: %d leaves vs %d", cfg, len(got.leaves), len(want.leaves))
		}
		for i := range want.leaves {
			if want.leaves[i] != got.leaves[i] {
				t.Fatalf("%+v: leaf %d differs", cfg, i)
			}
		}
	}
}

// TestFrontierResumeEquivalence prunes a first pass hard, then resumes
// every pruned node at a weaker threshold; the union of both passes'
// leaves must equal a fresh descent at the weak threshold.
func TestFrontierResumeEquivalence(t *testing.T) {
	for _, cfg := range []struct {
		dims, order, depth int
		seed               uint64
		tHi, tLo           float64
	}{
		{3, 3, 7, 1, 0.5, 0.1},
		{4, 2, 8, 2, 0.3, 0.01},
		{2, 4, 8, 3, 0.7, 0.2},
		{5, 2, 9, 4, 0.4, 0},
	} {
		c := MustNew(cfg.dims, cfg.order)
		side := c.SideLen()
		fd := c.NewFrontierDescent()

		track := newBoundsTracker(c)

		// First pass at the strong threshold, capturing pruned nodes.
		var frontier []NodeID
		first := newScoreVisitor(cfg.dims, cfg.seed, cfg.tHi)
		fd.Descend(cfg.depth, frontierScore{first, c, func(id NodeID) {
			frontier = append(frontier, id)
		}})
		leaves := append([]Interval(nil), first.leaves...)

		// Resume each pruned node at the weak threshold.
		for _, n := range frontier {
			v := newScoreVisitor(cfg.dims, cfg.seed, cfg.tLo)
			fd.Seek(n, track)
			v.reseed(track.lo, track.hi, side)
			if v.prod <= cfg.tLo {
				continue // still pruned at the weak threshold
			}
			fd.Descend(cfg.depth, frontierScore{v, c, nil})
			leaves = append(leaves, v.leaves...)
		}
		sort.Slice(leaves, func(i, j int) bool { return leaves[i].Start.Less(leaves[j].Start) })

		// Fresh descent at the weak threshold.
		fresh := newScoreVisitor(cfg.dims, cfg.seed, cfg.tLo)
		fd.Seek(RootID, track)
		fd.Descend(cfg.depth, frontierScore{fresh, c, nil})

		if len(fresh.leaves) != len(leaves) {
			t.Fatalf("%+v: resumed %d leaves, fresh %d", cfg, len(leaves), len(fresh.leaves))
		}
		for i := range leaves {
			if leaves[i] != fresh.leaves[i] {
				t.Fatalf("%+v: leaf %d differs after resume", cfg, i)
			}
		}
		if len(frontier) == 0 {
			t.Fatalf("%+v: first pass pruned nothing, test is vacuous", cfg)
		}
	}
}

// TestFrontierLeafDepthNode resumes a node already at the target depth:
// it must be emitted as a single leaf.
func TestFrontierLeafDepthNode(t *testing.T) {
	c := MustNew(3, 3)
	fd := c.NewFrontierDescent()

	var nodes []NodeID
	v := newScoreVisitor(3, 9, 1.0/32) // deep enough that some leaves prune
	fd.Descend(5, frontierScore{v, c, func(id NodeID) {
		if id.Depth() == 5 {
			nodes = append(nodes, id)
		}
	}})
	if len(nodes) == 0 {
		t.Fatal("no depth-level nodes were pruned")
	}
	track := newBoundsTracker(c)
	for _, n := range nodes {
		leafV := newScoreVisitor(3, 9, -1)
		fd.Seek(n, track)
		fd.Descend(5, frontierScore{leafV, c, nil})
		if len(leafV.leaves) != 1 {
			t.Fatalf("depth-level resume emitted %d leaves", len(leafV.leaves))
		}
		if want := c.IDSpan(n, n); leafV.leaves[0] != want {
			t.Fatalf("leaf interval %+v, node interval %+v", leafV.leaves[0], want)
		}
	}
}

// TestSeekMatchesSplitNode checks Seek against the explicit node tree:
// moving to every node, in depth-first and in shuffled order, reports
// bounds equal to those SplitNode derives step by step, and a descent
// from there enumerates exactly the node's own blocks.
func TestSeekMatchesSplitNode(t *testing.T) {
	for _, cfg := range []struct{ dims, order, depth int }{
		{2, 3, 6}, {3, 2, 6}, {5, 2, 8}, {1, 6, 6},
	} {
		c := MustNew(cfg.dims, cfg.order)
		type node struct {
			n  Node
			id NodeID
		}
		var nodes []node
		var collect func(n Node, id NodeID)
		collect = func(n Node, id NodeID) {
			nodes = append(nodes, node{n, id})
			if id.Depth() < cfg.depth {
				for b, ch := range c.SplitNode(n) {
					collect(ch, id<<1|NodeID(b))
				}
			}
		}
		collect(c.RootNode(), RootID)

		fd := c.NewFrontierDescent()
		track := newBoundsTracker(c)
		r := rand.New(rand.NewSource(int64(cfg.dims)))
		for pass := 0; pass < 2; pass++ {
			for _, nd := range nodes {
				fd.Seek(nd.id, track)
				for j := range track.lo {
					if track.lo[j] != nd.n.Lo[j] || track.hi[j] != nd.n.Hi[j] {
						t.Fatalf("%+v pass %d: node %#x dim %d: seek [%d,%d), split [%d,%d)", cfg, pass,
							uint64(nd.id), j, track.lo[j], track.hi[j], nd.n.Lo[j], nd.n.Hi[j])
					}
				}
				if got, want := c.IDSpan(nd.id, nd.id), c.NodeInterval(nd.n); got != want {
					t.Fatalf("%+v: node %#x interval %+v, want %+v", cfg, uint64(nd.id), got, want)
				}
				all := newScoreVisitor(cfg.dims, 0, -1)
				fd.Descend(cfg.depth, frontierScore{all, c, nil})
				span := c.NodeInterval(nd.n)
				if want := 1 << (cfg.depth - nd.id.Depth()); len(all.leaves) != want ||
					all.leaves[0].Start != span.Start || all.leaves[len(all.leaves)-1].End != span.End {
					t.Fatalf("%+v: descent below node %#x emitted %d leaves, want %d tiling %+v",
						cfg, uint64(nd.id), len(all.leaves), want, span)
				}
			}
			r.Shuffle(len(nodes), func(a, b int) { nodes[a], nodes[b] = nodes[b], nodes[a] })
		}
	}
}

// TestFrontierDepthPanics checks the depth validation.
func TestFrontierDepthPanics(t *testing.T) {
	mustPanic := func(what string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s accepted", what)
			}
		}()
		f()
	}
	c := MustNew(2, 2)
	fd := c.NewFrontierDescent()
	for _, depth := range []int{-1, c.IndexBits() + 1} {
		mustPanic(fmt.Sprintf("depth %d", depth), func() {
			fd.Descend(depth, frontierScore{newScoreVisitor(2, 0, -1), c, nil})
		})
	}
	// Depth below the node's own bits must also panic.
	track := newBoundsTracker(c)
	fd.Seek(RootID<<1|1, track)
	mustPanic("depth below node bits", func() {
		fd.Descend(0, frontierScore{newScoreVisitor(2, 0, -1), c, nil})
	})
	mustPanic("node below the curve's index bits", func() { fd.Seek(RootID<<5, track) })
	mustPanic("node id 0", func() { fd.Seek(0, track) })
	// The paper's curve has 160 index bits, but node ids hold 63.
	big := MustNew(20, 8)
	fdBig := big.NewFrontierDescent()
	mustPanic("depth 64", func() {
		fdBig.Descend(MaxFrontierDepth+1, frontierScore{newScoreVisitor(20, 0, 2), big, nil})
	})
}
