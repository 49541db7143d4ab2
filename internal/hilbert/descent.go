package hilbert

import (
	"fmt"

	"s3cbcd/internal/bitkey"
)

// Block is one element of the depth-p partition of the curve: a
// hyper-rectangle of the grid together with the curve interval
// [Start, End) that visits exactly its cells.
type Block struct {
	// Lo and Hi bound the block per dimension: cell coordinates x satisfy
	// Lo[j] <= x[j] < Hi[j]. The slices alias descent-internal storage and
	// are only valid during the callback; copy them to retain.
	Lo, Hi []uint32
	// Start and End delimit the half-open curve interval of the block.
	Start, End bitkey.Key
	// Depth is the partition depth p the block belongs to.
	Depth int
}

// Keep decides, for an internal descent node covering the given bounds,
// whether to continue descending into it. Bounds follow Block semantics
// (half-open, aliased storage). Returning false prunes the whole subtree:
// the geometric filtering rule of a range query or — the point of the
// paper — the probabilistic rule of a statistical query.
type Keep func(lo, hi []uint32) bool

// Emit receives each surviving depth-p block, in curve order. Returning
// false aborts the descent early.
type Emit func(b Block) bool

// StepVisitor observes the descent one bit at a time, which lets pruning
// rules maintain their decision quantity *incrementally*: every descent
// step halves exactly one dimension, so a product of per-dimension masses
// (statistical filtering) or a sum of per-dimension distances (geometric
// filtering) changes in one factor/term only. This is what makes the
// filtering step cheap at D = 20 — recomputing a 20-factor product at
// every node would dominate the query time.
type StepVisitor interface {
	// Enter is called when the descent halves dimension dim to [lo, hi).
	// Returning false prunes the subtree; Leave is then NOT called for
	// this step.
	Enter(dim int, lo, hi uint32) bool
	// Leave undoes the matching Enter during backtracking.
	Leave(dim int)
	// Leaf receives each surviving depth-p block in curve order;
	// returning false aborts the walk.
	Leaf(b Block) bool
}

// DescendSteps is Descend with incremental per-dimension notifications.
// It panics if depth is outside [0, K*D].
func (c *Curve) DescendSteps(depth int, v StepVisitor) {
	if depth < 0 || depth > c.IndexBits() {
		panic(fmt.Sprintf("hilbert: depth %d outside [0,%d]", depth, c.IndexBits()))
	}
	d := &descent{
		c:     c,
		depth: depth,
		stepV: v,
		lo:    make([]uint32, c.dims),
		hi:    make([]uint32, c.dims),
	}
	side := c.SideLen()
	for j := range d.hi {
		d.hi[j] = side
	}
	if depth == 0 {
		v.Leaf(Block{
			Lo: d.lo, Hi: d.hi,
			Start: bitkey.Zero,
			End:   endOfInterval(bitkey.Zero, 0, c.IndexBits()),
			Depth: 0,
		})
		return
	}
	d.walk(bitkey.Zero, 0, initialState(), 0, 0)
}

// Descend partitions the curve into 2^depth intervals and walks the
// induced block tree. keep is consulted at every internal node (and may be
// nil to keep everything); emit receives the surviving leaves in curve
// order. Descend panics if depth is outside [0, K*D].
//
// The walk consumes one index bit per tree edge. Within a level the bits
// are the binary rank w of the Gray-coded, state-transformed cell label;
// because a reflected Gray code preserves aligned prefixes, every partial
// prefix of q < D bits pins q known label bits, i.e. halves the node's
// rectangle along q known dimensions. This is why the partition is made of
// hyper-rectangles at every depth, not only at multiples of D.
func (c *Curve) Descend(depth int, keep Keep, emit Emit) {
	if depth < 0 || depth > c.IndexBits() {
		panic(fmt.Sprintf("hilbert: depth %d outside [0,%d]", depth, c.IndexBits()))
	}
	d := &descent{
		c:     c,
		depth: depth,
		keep:  keep,
		emit:  emit,
		lo:    make([]uint32, c.dims),
		hi:    make([]uint32, c.dims),
	}
	side := c.SideLen()
	for j := range d.hi {
		d.hi[j] = side
	}
	if depth == 0 {
		emit(Block{
			Lo: d.lo, Hi: d.hi,
			Start: bitkey.Zero,
			End:   endOfInterval(bitkey.Zero, 0, c.IndexBits()),
			Depth: 0,
		})
		return
	}
	d.walk(bitkey.Zero, 0, initialState(), 0, 0)
}

// descent carries the mutable walk state. lo/hi are updated in place and
// restored on backtrack, so the walk allocates nothing per node. Exactly
// one of (keep/emit) or stepV is set.
type descent struct {
	c      *Curve
	depth  int
	keep   Keep
	emit   Emit
	stepV  StepVisitor
	lo, hi []uint32
	done   bool
}

// walk explores the node whose consumed index prefix is prefix (m bits).
// st is the Hilbert state of the current level; q and wp are the count and
// value of the within-level bits of w consumed so far.
func (d *descent) walk(prefix bitkey.Key, m int, st state, q int, wp uint64) {
	if d.done {
		return
	}
	if m == d.depth {
		b := Block{
			Lo: d.lo, Hi: d.hi,
			Start: prefix.Shl(uint(d.c.IndexBits() - m)),
			Depth: d.depth,
		}
		b.End = endOfInterval(prefix, m, d.c.IndexBits())
		if d.stepV != nil {
			if !d.stepV.Leaf(b) {
				d.done = true
			}
		} else if !d.emit(b) {
			d.done = true
		}
		return
	}
	n := uint(d.c.dims)
	for b := uint64(0); b <= 1; b++ {
		dim, upper := st.split(q, wp, b, n)
		mid := (d.lo[dim] + d.hi[dim]) / 2
		savedLo, savedHi := d.lo[dim], d.hi[dim]
		if upper {
			d.lo[dim] = mid
		} else {
			d.hi[dim] = mid
		}

		var entered bool
		if d.stepV != nil {
			entered = d.stepV.Enter(dim, d.lo[dim], d.hi[dim])
		} else {
			entered = d.keep == nil || d.keep(d.lo, d.hi)
		}
		if entered {
			cst, cq, cwp := st.advance(q, wp, b, n)
			d.walk(prefix.Shl(1).OrLowBits(b), m+1, cst, cq, cwp)
			if d.stepV != nil {
				d.stepV.Leave(dim)
			}
		}

		d.lo[dim], d.hi[dim] = savedLo, savedHi
		if d.done {
			return
		}
	}
}

// endOfInterval returns (prefix+1) << (total-m), the exclusive end of the
// curve interval of an m-bit prefix. The topmost interval ends at
// 2^total, which is representable exactly because New rejects
// configurations with total >= bitkey.MaxBits.
func endOfInterval(prefix bitkey.Key, m, total int) bitkey.Key {
	return prefix.Inc().Shl(uint(total - m))
}

// Interval is a half-open range [Start, End) of curve indices.
type Interval struct {
	Start, End bitkey.Key
}

// MergeIntervals coalesces adjacent or overlapping intervals. The input
// must be sorted by Start (Descend emits blocks in curve order, so
// collecting Block.Start/End preserves this). It merges in place and
// returns the shortened slice.
func MergeIntervals(ivs []Interval) []Interval {
	if len(ivs) == 0 {
		return ivs
	}
	out := ivs[:1]
	for _, iv := range ivs[1:] {
		last := &out[len(out)-1]
		if iv.Start.Cmp(last.End) <= 0 {
			if last.End.Less(iv.End) {
				last.End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}
