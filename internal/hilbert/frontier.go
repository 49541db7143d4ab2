package hilbert

import (
	"fmt"
	"math/bits"

	"s3cbcd/internal/bitkey"
)

// MaxFrontierDepth is the deepest partition a frontier descent walks: a
// NodeID packs a node's depth and prefix into one uint64.
const MaxFrontierDepth = 63

// NodeID names a node of the partition tree by its consumed index
// prefix: the node at depth m with m-bit prefix p has id 1<<m | p. The
// leading one marks the depth, so the root is RootID and ids of one depth
// order like the curve intervals they cover.
type NodeID uint64

// RootID is the whole-grid node.
const RootID NodeID = 1

// Depth returns the node's depth in the partition tree.
func (id NodeID) Depth() int { return 63 - bits.LeadingZeros64(uint64(id)) }

// IDSpan returns the curve interval covered by the nodes first through
// last, which must share one depth: [start of first, end of last).
func (c *Curve) IDSpan(first, last NodeID) Interval {
	m := first.Depth()
	shift := uint(c.IndexBits() - m)
	p := uint64(first) &^ (1 << uint(m))
	end := uint64(last)&^(1<<uint(m)) + 1
	return Interval{
		Start: bitkey.FromUint64(p).Shl(shift),
		End:   bitkey.FromUint64(end).Shl(shift),
	}
}

// FrontierVisitor observes a frontier descent. Enter and Leave follow
// the StepVisitor protocol. Leaf receives each surviving depth-level
// node in curve order; returning false aborts the walk. Pruned receives,
// immediately after each Enter that returned false, the rejected child.
// Move receives every bound change Seek makes (dim now spans [lo, hi));
// unlike Enter it decides nothing and is never undone by Leave.
type FrontierVisitor interface {
	Enter(dim int, lo, hi uint32) bool
	Leave(dim int)
	Leaf(id NodeID) bool
	Pruned(id NodeID)
	Move(dim int, lo, hi uint32)
}

// FrontierDescent is reusable scratch for resumable pruned descents. A
// normal Descend restarts at the root every time the pruning rule
// changes; a frontier descent instead reports every pruned node by its
// NodeID, so that a later pass with a weaker rule can resume exactly
// where the earlier pass stopped, never re-walking the part of the tree
// the earlier pass already settled. A retained node costs its id alone:
// Seek rebuilds its bounds and curve state by walking the tree from the
// current node, so resuming nodes in curve order shares the walk along
// their common prefixes.
//
// A FrontierDescent carries only per-dimension bound scratch and the
// path to its current node; it may be reused across any number of
// Descend calls but is not safe for concurrent use.
type FrontierDescent struct {
	c      *Curve
	depth  int
	v      FrontierVisitor
	lo, hi []uint32
	done   bool

	id   NodeID     // the current node
	path []seekStep // the steps from the root to id
}

// seekStep is one edge of the path to the current node: the dimension it
// halved with that dimension's bounds before the step, and the walk state
// (level state, q, wp) of the child it leads to.
type seekStep struct {
	dim    int
	lo, hi uint32
	st     state
	q      int
	wp     uint64
}

// NewFrontierDescent returns scratch for resumable descents over c,
// positioned at the root.
func (c *Curve) NewFrontierDescent() *FrontierDescent {
	fd := &FrontierDescent{
		c:    c,
		lo:   make([]uint32, c.dims),
		hi:   make([]uint32, c.dims),
		path: make([]seekStep, 0, min(c.IndexBits(), MaxFrontierDepth)),
	}
	fd.Reset()
	return fd
}

// Reset positions the descent at the root without notifying anyone.
func (fd *FrontierDescent) Reset() {
	side := fd.c.SideLen()
	for j := range fd.lo {
		fd.lo[j], fd.hi[j] = 0, side
	}
	fd.id, fd.path = RootID, fd.path[:0]
}

// Seek moves the descent from its current node to node id: up to their
// deepest common ancestor, then down along id's prefix. Every bound
// change on the way is reported to v.Move, so a visitor that derives its
// state from the bounds stays positioned with the descent. Seek panics
// when id is deeper than the curve or than MaxFrontierDepth.
func (fd *FrontierDescent) Seek(id NodeID, v FrontierVisitor) {
	m := id.Depth()
	if id == 0 || m > fd.c.IndexBits() {
		panic(fmt.Sprintf("hilbert: node id %#x outside the curve's partition tree", uint64(id)))
	}
	// The common prefix: both ids cut to the shorter depth carry their
	// marker bit at the same position, so the highest differing bit
	// bounds the shared steps.
	cm := fd.id.Depth()
	k := min(m, cm)
	k -= bits.Len64(uint64(id>>uint(m-k)) ^ uint64(fd.id>>uint(cm-k)))
	for len(fd.path) > k {
		s := fd.path[len(fd.path)-1]
		fd.path = fd.path[:len(fd.path)-1]
		fd.lo[s.dim], fd.hi[s.dim] = s.lo, s.hi
		v.Move(s.dim, s.lo, s.hi)
	}
	n := uint(fd.c.dims)
	st, q, wp := fd.state()
	for i := m - 1 - k; i >= 0; i-- {
		b := uint64(id>>uint(i)) & 1
		dim, upper := st.split(q, wp, b, n)
		step := seekStep{dim: dim, lo: fd.lo[dim], hi: fd.hi[dim]}
		mid := (fd.lo[dim] + fd.hi[dim]) / 2
		if upper {
			fd.lo[dim] = mid
		} else {
			fd.hi[dim] = mid
		}
		v.Move(dim, fd.lo[dim], fd.hi[dim])
		st, q, wp = st.advance(q, wp, b, n)
		step.st, step.q, step.wp = st, q, wp
		fd.path = append(fd.path, step)
	}
	fd.id = id
}

// state returns the walk state of the current node.
func (fd *FrontierDescent) state() (state, int, uint64) {
	if len(fd.path) == 0 {
		return initialState(), 0, 0
	}
	s := &fd.path[len(fd.path)-1]
	return s.st, s.q, s.wp
}

// Descend walks the partition subtree under the current node down to
// depth, following the same protocol as Curve.DescendSteps: v.Enter is
// consulted for every candidate child (one halved dimension per step),
// v.Leave undoes an Enter on backtrack, and v.Leaf receives each
// surviving depth-level node in curve order. v.Pruned receives each
// rejected child; seeking that node later and descending continues the
// walk below it as if it had never been pruned. The descent is back at
// its starting node when Descend returns.
//
// Descend(p, v) from the root enumerates exactly the blocks of
// DescendSteps(p, v). Descend panics when depth is outside
// [current node depth, min(c.IndexBits(), MaxFrontierDepth)].
func (fd *FrontierDescent) Descend(depth int, v FrontierVisitor) {
	m := fd.id.Depth()
	if depth < m || depth > fd.c.IndexBits() || depth > MaxFrontierDepth {
		panic(fmt.Sprintf("hilbert: frontier descend depth %d outside [%d, min(%d, %d)]",
			depth, m, fd.c.IndexBits(), MaxFrontierDepth))
	}
	fd.depth, fd.v, fd.done = depth, v, false
	st, q, wp := fd.state()
	fd.walk(fd.id, m, st, q, wp)
	fd.v = nil
}

// walk mirrors descent.walk with two differences: it starts from an
// arbitrary node state instead of the root, and it reports pruned
// children by id.
func (fd *FrontierDescent) walk(id NodeID, m int, st state, q int, wp uint64) {
	if m == fd.depth {
		if !fd.v.Leaf(id) {
			fd.done = true
		}
		return
	}
	n := uint(fd.c.dims)
	for b := uint64(0); b <= 1; b++ {
		dim, upper := st.split(q, wp, b, n)
		mid := (fd.lo[dim] + fd.hi[dim]) / 2
		savedLo, savedHi := fd.lo[dim], fd.hi[dim]
		if upper {
			fd.lo[dim] = mid
		} else {
			fd.hi[dim] = mid
		}

		child := id<<1 | NodeID(b)
		if fd.v.Enter(dim, fd.lo[dim], fd.hi[dim]) {
			cst, cq, cwp := st.advance(q, wp, b, n)
			fd.walk(child, m+1, cst, cq, cwp)
			fd.v.Leave(dim)
		} else {
			fd.v.Pruned(child)
		}

		fd.lo[dim], fd.hi[dim] = savedLo, savedHi
		if fd.done {
			return
		}
	}
}
