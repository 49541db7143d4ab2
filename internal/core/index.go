package core

import (
	"fmt"
	"math"
	"sync"

	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

// planner holds what the filtering step needs: the curve geometry and the
// partition depth. Crucially it does not reference the record data, which
// is what allows the pseudo-disk strategy to filter a whole query batch
// before loading any database section (Section IV-B).
type planner struct {
	curve *hilbert.Curve
	depth int
	// ctxs pools query contexts (planning scratch; see getCtx), so
	// concurrent queries stay allocation-light without sharing state.
	ctxs sync.Pool // *queryContext
}

// dims returns the fingerprint dimension.
func (pl *planner) dims() int { return pl.curve.Dims() }

// Index is the in-memory S³ index: a curve-ordered fingerprint database
// plus the partition depth p used by the filtering step. The database is
// static (Section IV); rebuilding is the only way to insert or delete.
// An Index is safe for concurrent queries (SetDepth excluded).
type Index struct {
	planner
	db *store.DB
}

// MaxDepth is the deepest partition depth the planner supports: the
// frontier planner names partition-tree nodes by 64-bit ids
// (hilbert.MaxFrontierDepth). It is far beyond any useful depth — p is
// about log2 of the record count.
const MaxDepth = hilbert.MaxFrontierDepth

// maxDepth returns the deepest valid partition depth on curve.
func maxDepth(curve *hilbert.Curve) int { return min(curve.IndexBits(), MaxDepth) }

// checkDepth rejects a partition depth outside [1, maxDepth(curve)].
func checkDepth(curve *hilbert.Curve, p int) error {
	if p < 1 || p > maxDepth(curve) {
		return fmt.Errorf("core: depth %d outside [1,%d] (index bits %d, planner limit %d)",
			p, maxDepth(curve), curve.IndexBits(), MaxDepth)
	}
	return nil
}

// DefaultDepth returns the heuristic initial partition depth for n
// records: enough blocks that a block holds a handful of records. The
// paper learns the optimal p at the start of the retrieval stage
// (TuneDepth does that); this is only the starting point.
func DefaultDepth(curve *hilbert.Curve, n int) int {
	if n < 2 {
		return 1
	}
	p := int(math.Ceil(math.Log2(float64(n)))) + 1
	if p < 1 {
		p = 1
	}
	return min(p, maxDepth(curve))
}

// NewIndex wraps a database. depth <= 0 selects DefaultDepth.
func NewIndex(db *store.DB, depth int) (*Index, error) {
	curve := db.Curve()
	if depth <= 0 {
		depth = DefaultDepth(curve, db.Len())
	}
	if err := checkDepth(curve, depth); err != nil {
		return nil, err
	}
	return &Index{planner: planner{curve: curve, depth: depth}, db: db}, nil
}

// DB returns the underlying database.
func (ix *Index) DB() *store.DB { return ix.db }

// SetDepth changes the partition depth. It panics outside
// [1, min(K*D, MaxDepth)].
func (pl *planner) SetDepth(p int) {
	if err := checkDepth(pl.curve, p); err != nil {
		panic(err.Error())
	}
	pl.depth = p
}

// Depth returns the current partition depth p.
func (pl *planner) Depth() int { return pl.depth }

// Match is one fingerprint returned by a query.
type Match struct {
	// Pos is the record index in the database.
	Pos int
	// ID and TC are the stored video identifier and time code.
	ID, TC uint32
	// X and Y are the stored interest point position (0 when the producer
	// did not record positions).
	X, Y uint16
	// Dist is the L2 distance to the query for range queries, and -1 for
	// statistical queries, whose answer is the region itself.
	Dist float64
}

// queryPoint widens a byte fingerprint to float64 coordinates.
func queryPoint(q []byte, dims int) ([]float64, error) {
	if len(q) != dims {
		return nil, fmt.Errorf("core: query has %d components, index has %d", len(q), dims)
	}
	out := make([]float64, dims)
	for i, b := range q {
		out[i] = float64(b)
	}
	return out, nil
}

// distSqToFP returns the squared L2 distance between float query q and a
// stored byte fingerprint.
func distSqToFP(q []float64, fp []byte) float64 {
	s := 0.0
	for i, b := range fp {
		d := q[i] - float64(b)
		s += d * d
	}
	return s
}
