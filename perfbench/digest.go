package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

// opDigest hashes one op's output: the designio.Save bytes, report
// encodings and numbers it produced, each length-prefixed so adjacent
// parts cannot alias.
type opDigest struct{ h [32]byte }

func digestOf(parts ...[]byte) opDigest {
	h := sha256.New()
	for _, p := range parts {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	var d opDigest
	copy(d.h[:], h.Sum(nil))
	return d
}

// floatBytes encodes floats by their IEEE-754 bits, so the digest sees
// every digit.
func floatBytes(vals ...float64) []byte {
	b := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return b
}

// orderedDigest chains per-op digests in op order: reordering,
// dropping or changing any op's output changes the result.
func orderedDigest(ops []opDigest) string {
	h := sha256.New()
	for _, d := range ops {
		h.Write(d.h[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// compareDigests checks a run's per-op digests against the digests an
// independent path produced for the same ops, naming the first op that
// differs; ops[i] is the op index of got[i] and want[i].
func compareDigests(ops []int, got, want []opDigest) error {
	if len(got) != len(ops) || len(want) != len(ops) {
		return fmt.Errorf("digest: %d ops checked against %d reference ops", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("digest: op %d output differs from its reference (%x vs %x)",
				ops[i], got[i].h[:6], want[i].h[:6])
		}
	}
	return nil
}
