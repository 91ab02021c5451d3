package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"strings"
	"testing"

	"xring/internal/designio"
	"xring/internal/noc"
	"xring/internal/ring"
)

// goldenSweepPath holds the SHA-256 pinned by TestSweepGoldenDigest.
const goldenSweepPath = "testdata/sweep_golden.sha256"

// goldenSweepCases are the floorplans the golden digest sweeps: the
// paper's regular 8- and 16-node grids, seeded irregular floorplans
// (one of the 17-node size the sweep benchmark uses), and fault-tolerant
// variants that exercise the spare layer. The fault-tolerant variants
// pin one #wl setting each, one at which the exact spare repack improves
// on the greedy packing: the repack costs far more than the rest of the
// sweep.
type goldenSweepCase struct {
	name string
	net  *noc.Network
	ft   int
	wls  []int // nil sweeps 1..N
}

func goldenSweepCases() []goldenSweepCase {
	return []goldenSweepCase{
		{"fp8", noc.Floorplan8(), 0, nil},
		{"fp16", noc.Floorplan16(), 0, nil},
		{"irr10", noc.Irregular(10, 12, 12, 2.0, 7), 0, nil},
		{"irr17", noc.Irregular(17, 16.5, 16.5, 2.5, 11), 0, nil},
		{"fp8-ft", noc.Floorplan8(), 1, []int{5}},
		{"irr9-ft", noc.Irregular(9, 10, 10, 2.0, 3), 1, []int{3}},
	}
}

// writeFloat hashes a float by its exact bit pattern.
func writeFloat(h hash.Hash, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
	h.Write(b[:])
}

// sweepDigest synthesizes every (#wl, sharing-policy) candidate of every
// golden floorplan with the PDN and hashes, per candidate, the
// designio.Save bytes plus every per-signal loss figure and the
// crosstalk summary, all bit-exact. Infeasible candidates hash their
// error text.
func sweepDigest(t *testing.T) string {
	t.Helper()
	h := sha256.New()
	for _, tc := range goldenSweepCases() {
		rres, err := ring.Construct(tc.net, ring.Options{})
		if err != nil {
			t.Fatalf("%s: ring: %v", tc.name, err)
		}
		wls := tc.wls
		if wls == nil {
			for wl := 1; wl <= tc.net.N(); wl++ {
				wls = append(wls, wl)
			}
		}
		for _, wl := range wls {
			for _, share := range []bool{false, true} {
				fmt.Fprintf(h, "%s wl=%d share=%v\n", tc.name, wl, share)
				res, err := SynthesizeOnRingCtx(context.Background(), tc.net, rres, Options{
					WithPDN: true, MaxWL: wl, ShareWavelengths: share, FaultTolerance: tc.ft,
				})
				if err != nil {
					fmt.Fprintf(h, "infeasible: %v\n", err)
					continue
				}
				data, err := designio.Save(res.Design)
				if err != nil {
					t.Fatalf("%s wl=%d share=%v: save: %v", tc.name, wl, share, err)
				}
				h.Write(data)
				for i, s := range res.Loss.Sigs {
					sl := res.Loss.Losses[i]
					fmt.Fprintf(h, "%d>%d wl%d t%d d%d c%d b%d ", s.Src, s.Dst, sl.WL,
						sl.Throughs, sl.Drops, sl.Crossings, sl.Bends)
					writeFloat(h, sl.IL)
					writeFloat(h, sl.ILBeforeDrop)
					writeFloat(h, sl.PDNLoss)
					writeFloat(h, sl.PathLen)
					writeFloat(h, res.Xtalk.NoiseMW[i])
				}
				writeFloat(h, res.Loss.TotalPowerMW)
				writeFloat(h, res.Xtalk.WorstSNR)
				fmt.Fprintf(h, "noisy=%d\n", res.Xtalk.NumNoisy)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSweepGoldenDigest pins the synthesized bytes and analysis numbers
// of a full sweep. The golden was recorded before the ring-arc kernels
// (PassesNode, BendsOnArc, the gap walk) and the wavelength-bucketed
// first-fit mapper were rewritten to be allocation-free, so it proves
// that rewrite changed no design, wavelength choice or loss figure.
// A deliberate output change must re-record the golden and say why.
func TestSweepGoldenDigest(t *testing.T) {
	if raceEnabled {
		// The fault-tolerant cases' exact repack runs about 30x slower
		// under the race detector, and the digest checks outputs, not
		// concurrency: the determinism tests cover that under -race.
		t.Skip("output pin; too slow under the race detector")
	}
	want, err := os.ReadFile(goldenSweepPath)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	if got := sweepDigest(t); got != strings.TrimSpace(string(want)) {
		t.Fatalf("sweep digest %s, golden %s", got, strings.TrimSpace(string(want)))
	}
}
