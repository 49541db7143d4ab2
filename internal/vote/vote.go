// Package vote implements the temporal voting strategy of Section III:
// the per-fingerprint search results buffered over a time interval are
// merged into sequence-level decisions. For every video identifier
// represented in the results, the time offset b of the model tc' = tc + b
// is estimated robustly by minimizing a Tukey-biweight cost (eq. 2), and
// a similarity measure n_sim counts the candidate fingerprints consistent
// with the estimated offset within a small tolerance. Identifiers whose
// n_sim passes a decision threshold are reported as copies.
package vote

import (
	"math"
	"slices"
	"sort"

	"s3cbcd/internal/stat"
)

// Match is one referenced fingerprint returned by the similarity search:
// its video identifier, time code and (optionally) the interest point
// position used by the spatial extension.
type Match struct {
	ID   uint32
	TC   uint32
	X, Y uint16
}

// Candidate is the search result of one candidate fingerprint: the
// candidate's own time code tc', its own interest point position, and
// the matches {S_jk}.
type Candidate struct {
	TC      uint32
	X, Y    float64
	Matches []Match
}

// Config collects the voting parameters.
type Config struct {
	// TukeyC is the scale c of Tukey's biweight cost, in time-code units.
	// Default 15 (residuals beyond c contribute a constant cost).
	TukeyC float64
	// Tolerance is the residual below which a candidate fingerprint
	// counts as a vote for the estimated offset. Default 2 (the paper's
	// "tolerance of 2 frames").
	Tolerance float64
	// MinVotes is the decision threshold on n_sim. Default 4. In the
	// paper it is calibrated for < 1 false alarm per hour of monitoring;
	// the experiments harness calibrates it the same way.
	MinVotes int
	// IRLSIters bounds the refinement iterations. Default 10.
	IRLSIters int
	// SpatialTolerance enables the spatially extended vote (the paper's
	// stated future work): when > 0, after the temporal offset is
	// estimated, a per-axis linear position model x' = a·x + t is fitted
	// robustly on the temporal inliers, and a vote additionally requires
	// the candidate position to be predicted within this many pixels on
	// both axes. 0 disables the extension (the paper's published system).
	SpatialTolerance float64
}

func (c Config) withDefaults() Config {
	if c.TukeyC == 0 {
		c.TukeyC = 15
	}
	if c.Tolerance == 0 {
		c.Tolerance = 2
	}
	if c.MinVotes == 0 {
		c.MinVotes = 4
	}
	if c.IRLSIters == 0 {
		c.IRLSIters = 10
	}
	return c
}

// DefaultConfig returns the default voting parameters.
func DefaultConfig() Config { return Config{}.withDefaults() }

// Detection is one identifier that passed the vote.
type Detection struct {
	ID uint32
	// Offset is the estimated b of tc' = tc + b.
	Offset float64
	// Votes is the decision count: n_sim of the temporal model, further
	// restricted to spatially coherent candidates when the spatial
	// extension is enabled.
	Votes int
	// TemporalVotes is the plain temporal n_sim (equal to Votes when the
	// spatial extension is disabled).
	TemporalVotes int
	// ScaleX and ScaleY are the fitted spatial scales (1 when disabled).
	ScaleX, ScaleY float64
	// Cost is the final Tukey cost of the fit (diagnostic).
	Cost float64
}

// Decide estimates b(id) for every identifier in the buffered results and
// returns the identifiers with Votes >= MinVotes, strongest first.
//
// n_sim counts candidate fingerprints, so an identifier carried by fewer
// than MinVotes distinct candidates can never pass the vote. Decide skips
// those identifiers before estimating anything; at a calibrated threshold
// that is almost every identifier in the buffer. The skip is exact: the
// result equals estimating every identifier and cutting afterwards.
func Decide(cands []Candidate, cfg Config) []Detection {
	return decide(cands, cfg.withDefaults())
}

// Score is Decide without the MinVotes cut: every identifier with its
// vote count, used for threshold calibration.
func Score(cands []Candidate, cfg Config) []Detection {
	cfg = cfg.withDefaults()
	cfg.MinVotes = 0
	return decide(cands, cfg)
}

func decide(cands []Candidate, cfg Config) []Detection {
	var g grouping
	g.build(cands, cfg.MinVotes)
	e := estimator{refs: g.refs}
	var dets []Detection
	start := 0
	for i, id := range g.ids {
		d := e.estimate(g.obs[start:g.obsEnd[i]], cfg)
		start = g.obsEnd[i]
		if d.Votes >= cfg.MinVotes {
			d.ID = id
			dets = append(dets, d)
		}
	}
	sort.Slice(dets, func(i, j int) bool {
		if dets[i].Votes != dets[j].Votes {
			return dets[i].Votes > dets[j].Votes
		}
		return dets[i].ID < dets[j].ID
	})
	return dets
}

// ref is one matched reference fingerprint of an identifier.
type ref struct {
	tc   float64
	x, y float64
}

// obs groups one candidate fingerprint's matches for one identifier:
// refs[lo:hi] of the grouping are the matches with Id_jk = id.
type obs struct {
	tcQ    float64 // tc'_j
	qx, qy float64 // candidate interest point position
	lo, hi int32
}

// grouping holds the observations of every identifier that can reach
// the vote threshold, in flat arrays: identifier ids[i] owns
// obs[obsEnd[i-1]:obsEnd[i]] (in candidate order), and every
// observation indexes its matches in the one shared refs array.
type grouping struct {
	ids    []uint32 // in order of first appearance
	obsEnd []int
	obs    []obs
	refs   []ref
}

// slotInfo is the per-identifier bookkeeping of grouping.build. Pass 1
// counts into nObs and nRefs; between the passes they become write
// positions into the flat arrays (obsPos < 0 marks a skipped identifier).
type slotInfo struct {
	id             uint32
	last           int32 // index of the last candidate seen carrying id
	nObs, nRefs    int32
	obsPos, refPos int32
}

// build groups the matches of cands by identifier in two passes and O(1)
// allocations per pass. The first pass counts, per identifier, its
// distinct candidates (an upper bound on its n_sim) and its matches; the
// second fills the flat arrays, for the identifiers with at least minObs
// distinct candidates only.
func (g *grouping) build(cands []Candidate, minObs int) {
	total := 0
	for _, c := range cands {
		total += len(c.Matches)
	}
	slotOf := make(map[uint32]int32)
	slots := make([]int32, 0, total) // slot of every match, in scan order
	var info []slotInfo
	for j, c := range cands {
		for _, m := range c.Matches {
			s, ok := slotOf[m.ID]
			if !ok {
				s = int32(len(info))
				slotOf[m.ID] = s
				info = append(info, slotInfo{id: m.ID, last: -1})
			}
			slots = append(slots, s)
			in := &info[s]
			in.nRefs++
			if in.last != int32(j) {
				in.last = int32(j)
				in.nObs++
			}
		}
	}

	var keep []int32
	for s := range info {
		info[s].obsPos, info[s].last = -1, -1
		if int(info[s].nObs) >= minObs {
			keep = append(keep, int32(s))
		}
	}
	g.ids = make([]uint32, len(keep))
	g.obsEnd = make([]int, len(keep))
	nObs, nRefs := 0, 0
	for i, s := range keep {
		in := &info[s]
		in.obsPos, in.refPos = int32(nObs), int32(nRefs)
		nObs += int(in.nObs)
		nRefs += int(in.nRefs)
		g.ids[i], g.obsEnd[i] = in.id, nObs
	}
	g.obs = make([]obs, nObs)
	g.refs = make([]ref, nRefs)

	k := 0
	for j, c := range cands {
		for _, m := range c.Matches {
			in := &info[slots[k]]
			k++
			if in.obsPos < 0 {
				continue
			}
			if in.last != int32(j) {
				in.last = int32(j)
				g.obs[in.obsPos] = obs{tcQ: float64(c.TC), qx: c.X, qy: c.Y, lo: in.refPos}
				in.obsPos++
			}
			g.refs[in.refPos] = ref{tc: float64(m.TC), x: float64(m.X), y: float64(m.Y)}
			in.refPos++
			// An identifier's refs are written contiguously in candidate
			// order, so its latest observation ends at the write position.
			g.obs[in.obsPos-1].hi = in.refPos
		}
	}
}

// maxOffsetCandidates caps the coarse search over candidate offsets; for
// identifiers with very many matches a deterministic subsample is
// evaluated before IRLS refinement.
const maxOffsetCandidates = 512

// offsetIndexBits is the width of the position field in the sort keys of
// estimator.candidates; the subsample never exceeds
// 2*maxOffsetCandidates-1 offsets.
const offsetIndexBits = 11

// estimator is the scratch of one Decide call, reused across identifiers.
type estimator struct {
	refs    []ref // the grouping's matches, indexed by obs
	offsets []float64
	pairs   []int64 // every pair offset, sorted
	keys    []int64
	cands   []offsetCandidate
	farSum  []float64
	spatial []spatialObservation
}

// estimate solves eq. (2) for one identifier: candidate offsets are the
// pairwise differences tc' - tc, the Tukey cost of each candidate is
// evaluated with the per-candidate min over matches, the best is refined
// by IRLS, and votes are counted within the tolerance. observations must
// not be empty.
func (e *estimator) estimate(observations []obs, cfg Config) Detection {
	offsets := e.offsets[:0]
	for _, o := range observations {
		for _, rf := range e.refs[o.lo:o.hi] {
			offsets = append(offsets, o.tcQ-rf.tc)
		}
	}
	e.offsets = offsets
	all := len(offsets)
	if len(offsets) > maxOffsetCandidates {
		e.sortPairs(offsets)
		step := len(offsets) / maxOffsetCandidates
		n := 0
		for i := 0; i < len(offsets); i += step {
			offsets[n] = offsets[i]
			n++
		}
		offsets = offsets[:n]
	}
	bestB, bestCost := e.coarse(observations, offsets, len(offsets) == all, cfg.TukeyC)

	// IRLS refinement around the best candidate offset.
	b := bestB
	for it := 0; it < cfg.IRLSIters; it++ {
		var num, den float64
		for _, o := range observations {
			bestR, bestTC := math.Inf(1), 0.0
			for _, rf := range e.refs[o.lo:o.hi] {
				if r := math.Abs(o.tcQ - (rf.tc + b)); r < bestR {
					bestR, bestTC = r, rf.tc
				}
			}
			w := stat.TukeyWeight(bestR, cfg.TukeyC)
			num += w * (o.tcQ - bestTC)
			den += w
		}
		if den == 0 {
			break
		}
		nb := num / den
		if math.Abs(nb-b) < 1e-6 {
			b = nb
			break
		}
		b = nb
	}
	if c := tukeyCost(observations, e.refs, b, cfg.TukeyC, bestCost); c < bestCost {
		bestCost = c
	} else {
		b = bestB
	}

	votes := 0
	e.spatial = e.spatial[:0]
	for _, o := range observations {
		best := math.Inf(1)
		var bestRef ref
		for _, rf := range e.refs[o.lo:o.hi] {
			if r := math.Abs(o.tcQ - (rf.tc + b)); r < best {
				best, bestRef = r, rf
			}
		}
		if best <= cfg.Tolerance {
			votes++
			if cfg.SpatialTolerance > 0 {
				e.spatial = append(e.spatial, spatialObservation{
					refX: bestRef.x, refY: bestRef.y,
					candX: o.qx, candY: o.qy,
				})
			}
		}
	}
	det := Detection{Offset: b, Votes: votes, TemporalVotes: votes,
		ScaleX: 1, ScaleY: 1, Cost: bestCost}
	if cfg.SpatialTolerance > 0 {
		sv, mx, my := spatialVotes(e.spatial, cfg.SpatialTolerance)
		det.Votes = sv
		det.ScaleX, det.ScaleY = mx.A, my.A
	}
	return det
}

// offsetCandidate is one distinct offset of the coarse search.
type offsetCandidate struct {
	b     float64
	first int // position of its first occurrence in the offset list
	near  int // pair offsets within the Tukey scale of b
}

// coarse returns the offset of least Tukey cost, the earliest one on
// ties, with its cost: exactly what evaluating every offset in order and
// keeping strict improvements returns. complete reports that offsets
// holds every pair offset of observations; otherwise e.pairs must hold
// them, sorted.
//
// Three exact shortcuts make the search cheap. Repeated offsets have
// equal costs, so each distinct offset is evaluated once. An observation
// contributes the full rho(c) unless one of its pair offsets lies within
// c of b, so the cost of b is at least the float sum of rho(c) over the
// observations without such a pair (float addition is monotone, so the
// bound holds bit for bit); offsets whose bound cannot beat the incumbent
// are skipped. The rest are abandoned once their partial sum cannot beat
// it. The incumbent is seeded with the offset that has the most pairs
// nearby, which is usually the winner.
func (e *estimator) coarse(observations []obs, offsets []float64, complete bool, c float64) (float64, float64) {
	if !(c > 0 && c < 1<<52) {
		// Degenerate scale: no useful bound, scan in order.
		bestB, bestCost := offsets[0], math.Inf(1)
		for _, b := range offsets {
			if v := tukeyCost(observations, e.refs, b, c, bestCost); v < bestCost {
				bestCost, bestB = v, b
			}
		}
		return bestB, bestCost
	}
	cands := e.candidates(offsets, complete, c)
	// farSum[m] is the float sum of m terms rho(c), added one by one as
	// tukeyCost adds them.
	rhoMax := stat.TukeyRho(c, c)
	farSum := append(e.farSum[:0], 0)
	for m := 1; m <= len(observations); m++ {
		farSum = append(farSum, farSum[m-1]+rhoMax)
	}
	e.farSum = farSum

	seed := 0
	for i := range cands {
		if cands[i].near > cands[seed].near {
			seed = i
		}
	}
	bestI, bestCost := seed, tukeyCost(observations, e.refs, cands[seed].b, c, math.Inf(1))
	for i := range cands {
		if i == seed {
			continue
		}
		// Offset i wins iff its cost is below bestCost, or equal to it
		// with i occurring before the incumbent.
		limit := bestCost
		if cands[i].first < cands[bestI].first {
			limit = math.Nextafter(bestCost, math.Inf(1))
		}
		if farSum[max(len(observations)-cands[i].near, 0)] >= limit {
			continue
		}
		if v := tukeyCost(observations, e.refs, cands[i].b, c, limit); v < limit {
			bestI, bestCost = i, v
		}
	}
	return cands[bestI].b, bestCost
}

// candidates returns the distinct offsets in ascending order with their
// first positions and near counts. Offsets are differences of uint32 time
// codes, hence integers: each packs exactly with its position into one
// sort key, and a residual is below c iff it is at most ceil(c)-1.
func (e *estimator) candidates(offsets []float64, complete bool, c float64) []offsetCandidate {
	keys := e.keys[:0]
	for i, b := range offsets {
		keys = append(keys, int64(b)<<offsetIndexBits|int64(i))
	}
	slices.Sort(keys)
	if complete {
		e.pairs = e.pairs[:0]
		for _, k := range keys {
			e.pairs = append(e.pairs, k>>offsetIndexBits)
		}
	}
	pairs := e.pairs
	w := int64(math.Ceil(c)) - 1
	cands := e.cands[:0]
	lo, hi := 0, 0
	for i, k := range keys {
		v := k >> offsetIndexBits
		if i > 0 && v == keys[i-1]>>offsetIndexBits {
			continue
		}
		for lo < len(pairs) && pairs[lo] < v-w {
			lo++
		}
		for hi < len(pairs) && pairs[hi] <= v+w {
			hi++
		}
		first := int(k & (1<<offsetIndexBits - 1))
		cands = append(cands, offsetCandidate{b: offsets[first], first: first, near: hi - lo})
	}
	e.keys, e.cands = keys, cands
	return cands
}

// sortPairs stores the offsets, as integers, sorted in e.pairs.
func (e *estimator) sortPairs(offsets []float64) {
	pairs := e.pairs[:0]
	for _, b := range offsets {
		pairs = append(pairs, int64(b))
	}
	slices.Sort(pairs)
	e.pairs = pairs
}

// tukeyCost is the eq. (2) cost of offset b, each observation taking its
// best-matching reference. It returns early, with a partial sum >= bound,
// once the sum reaches bound: every term is non-negative, so the full
// cost could not be below bound either.
func tukeyCost(observations []obs, refs []ref, b, c, bound float64) float64 {
	total := 0.0
	for _, o := range observations {
		best := math.Inf(1)
		for _, rf := range refs[o.lo:o.hi] {
			if r := math.Abs(o.tcQ - (rf.tc + b)); r < best {
				best = r
			}
		}
		total += stat.TukeyRho(best, c)
		if total >= bound {
			return total
		}
	}
	return total
}
