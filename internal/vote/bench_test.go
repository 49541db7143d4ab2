package vote

import (
	"math/rand"
	"testing"
)

// manyIDCandidates models archive-scale search results: each candidate
// fingerprint matches dozens of records spread over thousands of
// identifiers (the regime where per-identifier filtering of the whole
// result set used to dominate detection time).
func manyIDCandidates(nCands, matchesPer, idSpace int) []Candidate {
	r := rand.New(rand.NewSource(1))
	cands := make([]Candidate, nCands)
	for j := range cands {
		c := Candidate{TC: uint32(100 + j), X: float64(j % 90), Y: float64(j % 70)}
		for k := 0; k < matchesPer; k++ {
			c.Matches = append(c.Matches, Match{
				ID: uint32(r.Intn(idSpace)),
				TC: uint32(r.Intn(100000)),
				X:  uint16(r.Intn(90)), Y: uint16(r.Intn(70)),
			})
		}
		cands[j] = c
	}
	return cands
}

func BenchmarkDecideManyIDs(b *testing.B) {
	cands := manyIDCandidates(200, 50, 4000)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Decide(cands, cfg)
	}
}

func BenchmarkDecideFewIDs(b *testing.B) {
	cands := manyIDCandidates(200, 50, 8)
	cfg := DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Decide(cands, cfg)
	}
}
