package main

import (
	"time"

	"s3cbcd/internal/bitkey"
	"s3cbcd/internal/hilbert"
	"s3cbcd/internal/store"
)

// encodeSample is the number of fingerprints whose curve key the traced
// run times.
const encodeSample = 20000

var encodeSink bitkey.Key

// encodeNsPerKey times Curve.Encode over the first encodeSample records'
// fingerprints, as an op of its own ("encode" root, "hilbert" child), and
// returns nanoseconds per key.
func encodeNsPerKey(rec *recorder, curve *hilbert.Curve, recs []store.Record) float64 {
	n := min(len(recs), encodeSample)
	if n == 0 {
		return 0
	}
	pt := make([]uint32, curve.Dims())
	opID := rec.newOp()
	op := rec.start("encode", 0, opID)
	sp := rec.start("hilbert", op, opID)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		for j, b := range recs[i].FP {
			pt[j] = uint32(b)
		}
		encodeSink = curve.Encode(pt)
	}
	d := time.Since(t0)
	rec.end(sp)
	rec.end(op)
	return float64(d) / float64(n)
}
