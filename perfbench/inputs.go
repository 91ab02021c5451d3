package main

// Seeded inputs. Every input a workload feeds the program is a pure
// function of the run seed, a stream name and an index, so the same
// seed always yields the same floorplans, request bodies and schedule.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"

	"xring/internal/noc"
	"xring/internal/ring"
)

// subSeed derives the seed of one input from the run seed.
func subSeed(seed int64, stream string, i int) int64 {
	h := sha256.New()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	h.Write(b[:])
	h.Write([]byte(stream))
	sum := h.Sum(nil)
	return int64(binary.LittleEndian.Uint64(sum[:8]) >> 1)
}

// rngFor returns the PRNG of one input stream.
func rngFor(seed int64, stream string, i int) *rand.Rand {
	return rand.New(rand.NewSource(subSeed(seed, stream, i)))
}

// irregular returns a seeded irregular floorplan of n nodes on a die
// that grows with n (16 mm for 16 nodes, 24 mm for 32), with 2.5 mm
// minimum spacing.
func irregular(n int, seed int64) *noc.Network {
	side := 16 + float64(n-16)/2
	return noc.Irregular(n, side, side, 2.5, seed)
}

// feasibleIrregular returns the first floorplan of a seeded sequence
// whose Step-1 ring construction succeeds. About one seeded irregular
// floorplan in a hundred admits no crossing-free L-order assignment of
// its optimal tour, which the ring constructor reports as an error, and
// no workload may fail on its inputs.
func feasibleIrregular(ctx context.Context, n int, seed int64, stream string, i int) (*noc.Network, error) {
	for attempt := 0; attempt < 16; attempt++ {
		s := stream
		if attempt > 0 {
			s = fmt.Sprintf("%s/retry%d", stream, attempt)
		}
		net := irregular(n, subSeed(seed, s, i))
		if _, err := ring.ConstructCtx(ctx, net, ring.Options{}); err == nil {
			return net, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return nil, fmt.Errorf("no feasible %d-node floorplan for %s/%d", n, stream, i)
}

// spelling says how a synthesize request body is written. Spellings
// differ only in ways the service's canonical key ignores: node order,
// float formatting and object member order.
type spelling struct {
	order        []int // node listing order; nil lists by ID
	floatFmt     byte  // strconv format: 'g' canonical, 'e' or 'f' re-spelled
	optionsFirst bool
}

func (sp spelling) float(v float64) string {
	f := sp.floatFmt
	if f == 0 {
		f = 'g'
	}
	return strconv.FormatFloat(v, f, -1, 64)
}

// respelling draws a random non-canonical spelling for an n-node body.
func respelling(rng *rand.Rand, n int) spelling {
	return spelling{
		order:        rng.Perm(n),
		floatFmt:     []byte{'e', 'f'}[rng.Intn(2)],
		optionsFirst: rng.Intn(2) == 0,
	}
}

// networkJSON writes a floorplan as the service's explicit-nodes
// network spec.
func networkJSON(net *noc.Network, sp spelling) []byte {
	var b bytes.Buffer
	b.WriteString(`{"dieW":` + sp.float(net.DieW) + `,"dieH":` + sp.float(net.DieH) + `,"nodes":[`)
	order := sp.order
	if order == nil {
		order = make([]int, net.N())
		for i := range order {
			order[i] = i
		}
	}
	for k, i := range order {
		if k > 0 {
			b.WriteByte(',')
		}
		n := net.Nodes[i]
		b.WriteString(`{"id":` + strconv.Itoa(n.ID) + `,"name":` + strconv.Quote(n.Name) +
			`,"x":` + sp.float(n.Pos.X) + `,"y":` + sp.float(n.Pos.Y) + `}`)
	}
	b.WriteString(`]}`)
	return b.Bytes()
}

// synthBody writes a POST /v1/synthesize body for one synthesis at
// budget wl with the PDN.
func synthBody(net *noc.Network, wl int, sp spelling) []byte {
	opts := `"options":{"maxWL":` + strconv.Itoa(wl) + `,"withPDN":true}`
	network := `"network":` + string(networkJSON(net, sp))
	if sp.optionsFirst {
		return []byte(`{` + opts + `,` + network + `}`)
	}
	return []byte(`{` + network + `,` + opts + `}`)
}

// slottedSchedule returns send offsets, in seconds, of an open-loop
// stream at rate per second over the given duration: one request in
// each 1/rate slot, at a seeded uniform position within it. A Poisson
// process would let requests clump, differently for every seed, and the
// clumps rather than the service would set the run's p99.
func slottedSchedule(rng *rand.Rand, rate, seconds float64) []float64 {
	var out []float64
	for k := 0; ; k++ {
		t := (float64(k) + rng.Float64()) / rate
		if t >= seconds {
			return out
		}
		out = append(out, t)
	}
}
