package hilbert

import (
	"fmt"

	"s3cbcd/internal/bitkey"
)

// Node is an explicit, self-contained descent node: a block of the
// partition tree with owned bounds. Unlike the DFS of Descend, explicit
// nodes can be expanded in any order, which is what best-first traversals
// (k-NN search) need.
type Node struct {
	// Lo and Hi are the node's hyper-rectangle bounds (owned, not
	// aliased).
	Lo, Hi []uint32
	// Prefix holds the Bits consumed index bits.
	Prefix bitkey.Key
	// Bits is the node's depth in the partition tree.
	Bits int

	st state
	q  int
	wp uint64
}

// RootNode returns the whole-grid node.
func (c *Curve) RootNode() Node {
	lo := make([]uint32, c.dims)
	hi := make([]uint32, c.dims)
	side := c.SideLen()
	for j := range hi {
		hi[j] = side
	}
	return Node{Lo: lo, Hi: hi, st: initialState()}
}

// SplitNode returns n's two children in curve order. It panics when the
// node is already at maximal depth.
func (c *Curve) SplitNode(n Node) [2]Node {
	if n.Bits >= c.IndexBits() {
		panic(fmt.Sprintf("hilbert: cannot split node at depth %d", n.Bits))
	}
	nd := uint(c.dims)
	var out [2]Node
	for b := uint64(0); b <= 1; b++ {
		child := Node{
			Lo:     append([]uint32(nil), n.Lo...),
			Hi:     append([]uint32(nil), n.Hi...),
			Prefix: n.Prefix.Shl(1).OrLowBits(b),
			Bits:   n.Bits + 1,
		}
		dim, upper := n.st.split(n.q, n.wp, b, nd)
		mid := (n.Lo[dim] + n.Hi[dim]) / 2
		if upper {
			child.Lo[dim] = mid
		} else {
			child.Hi[dim] = mid
		}
		child.st, child.q, child.wp = n.st.advance(n.q, n.wp, b, nd)
		out[b] = child
	}
	return out
}

// NodeInterval returns the curve interval covered by the node.
func (c *Curve) NodeInterval(n Node) Interval {
	shift := uint(c.IndexBits() - n.Bits)
	return Interval{
		Start: n.Prefix.Shl(shift),
		End:   n.Prefix.Inc().Shl(shift),
	}
}
