package router

import (
	"slices"

	"xring/internal/noc"
)

// Slots records the channels of ring waveguide slots, one slot per
// (waveguide, wavelength) pair, as two bit rows over tour positions:
// recv marks each channel's receiver (its Dst) and inner the union of
// each channel's strictly interior positions, which form one cyclic
// range in the travel direction. Two same-wavelength channels collide
// exactly when they share a receiver or either one passes the other's
// receiver (ChannelsCollide), so a candidate collides with a slot when
// its receiver bit is set in recv|inner or its interior range meets
// recv. A slot whose recv row is empty is free. Step 3 and Validate run
// this one test; the caller numbers the slots.
type Slots struct {
	d     *Design
	words int      // uint64 words per row: ⌈N/64⌉
	rows  []uint64 // slot s: recv at [2s*words, (2s+1)*words), then inner
}

// NewSlots returns an empty set of slots over d's tour with room for
// capacity slots before it reallocates.
func NewSlots(d *Design, capacity int) Slots {
	words := (d.N() + 63) / 64
	return Slots{d: d, words: words, rows: make([]uint64, 0, 2*words*capacity)}
}

// Resize cuts the slots to n or appends free ones up to n.
func (s *Slots) Resize(n int) {
	m, old := 2*s.words*n, len(s.rows)
	if m <= old {
		s.rows = s.rows[:m]
		return
	}
	s.rows = slices.Grow(s.rows, m-old)[:m]
	clear(s.rows[old:])
}

// Clear frees the slots [lo, hi).
func (s *Slots) Clear(lo, hi int) { clear(s.rows[2*s.words*lo : 2*s.words*hi]) }

// Free reports whether slot holds no channel.
func (s *Slots) Free(slot int) bool {
	for i := 2 * s.words * slot; i < (2*slot+1)*s.words; i++ {
		if s.rows[i] != 0 {
			return false
		}
	}
	return true
}

// Collides reports whether sig, travelling in direction dir, collides
// with a channel on slot.
func (s *Slots) Collides(slot int, dir Direction, sig noc.Signal) bool {
	recv, inner := s.row(slot)
	dst, lo, m := s.arc(dir, sig)
	if (recv[dst>>6]|inner[dst>>6])>>(dst&63)&1 != 0 {
		return true
	}
	return s.cyclic(recv, lo, m, false)
}

// Add records sig, travelling in direction dir, on slot.
func (s *Slots) Add(slot int, dir Direction, sig noc.Signal) {
	recv, inner := s.row(slot)
	dst, lo, m := s.arc(dir, sig)
	recv[dst>>6] |= 1 << (dst & 63)
	s.cyclic(inner, lo, m, true)
}

func (s *Slots) row(slot int) (recv, inner []uint64) {
	r := s.rows[2*s.words*slot : 2*s.words*(slot+1)]
	return r[:s.words], r[s.words:]
}

// arc returns the tour position of sig's receiver and its interior as
// the m positions of the cyclic range starting at lo: from the source
// forward to the receiver on CW, from the receiver forward to the source
// on CCW, endpoints excluded.
func (s *Slots) arc(dir Direction, sig noc.Signal) (dst, lo, m int) {
	n := s.d.N()
	from, dst := s.d.TourPos(sig.Src), s.d.TourPos(sig.Dst)
	to := dst
	if dir == CCW {
		from, to = dst, from
	}
	if lo, m = from+1, to-from-1; lo == n {
		lo = 0
	}
	if m < 0 {
		m += n
	}
	return dst, lo, m
}

// cyclic sets (set) or tests (!set) the bits of row in the cyclic range
// of m positions starting at lo.
func (s *Slots) cyclic(row []uint64, lo, m int, set bool) bool {
	n := s.d.N()
	if lo+m <= n {
		return span(row, lo, lo+m, set)
	}
	return span(row, lo, n, set) || span(row, 0, lo+m-n, set)
}

// span sets (set) or tests (!set) the bits of row in [lo, hi); the test
// reports whether any of them is set.
func span(row []uint64, lo, hi int, set bool) bool {
	for lo < hi {
		w := lo >> 6
		mask := ^uint64(0) << (lo & 63)
		if end := (w + 1) << 6; hi < end {
			mask &= ^uint64(0) >> (end - hi)
			lo = hi
		} else {
			lo = end
		}
		if set {
			row[w] |= mask
		} else if row[w]&mask != 0 {
			return true
		}
	}
	return false
}
