package trace

import (
	"fmt"
	"sort"
)

// InterleaveStats reports the timing fidelity of an interleave merge.
// The Gap field of an Event holds at most 65535 instructions, so a
// merged stream whose schedule contains a longer quiet period cannot
// express it on a single event; the merge instead carries the excess
// forward into the gaps of later events (which were computed against a
// smaller emitted time and therefore have headroom).
type InterleaveStats struct {
	// GapSplits counts events whose scheduled gap exceeded the Gap
	// field's capacity and was carried into subsequent events.
	GapSplits uint64
	// CarriedMax is the largest instruction deficit outstanding at any
	// point of the merge (how far emitted time lagged the schedule).
	CarriedMax uint64
	// LostInstructions is the deficit still outstanding when the merge
	// ran out of carrier events; Instructions() of the merged trace is
	// short by exactly this amount. Zero whenever enough events follow
	// every oversized gap.
	LostInstructions uint64
}

// InterleaveOffset merges traces by instruction time: events are
// replayed in global instruction order, modelling independent phases
// sharing one cache (coarse-grained multiprogramming without address
// translation). Input i begins at instruction time offsets[i] (nil or
// missing entries mean zero), so staggered phase arrivals can be
// modelled. Ties at an instruction slot resolve by input order for
// determinism. Gaps are recomputed so the merged trace's instruction
// positions match the union schedule; gaps longer than the Gap field's
// capacity are split across subsequent events, preserving total
// instruction time. The returned stats describe how faithfully the
// schedule fit the Gap field's capacity.
func InterleaveOffset(name string, offsets []uint64, ts ...*Trace) (*Trace, InterleaveStats) {
	out := &Trace{Name: name}
	var st InterleaveStats
	// emitted is the instruction time the output events represent so
	// far (sum of gap+1); ideal is the same sum had gaps been unbounded.
	// Their difference is the deficit an oversized gap left behind,
	// absorbed by later events whose gaps are computed against emitted.
	var emitted, ideal uint64
	Merge(offsets, ts, func(_ int, e Event, when uint64) {
		gap := uint64(0)
		if when > emitted {
			gap = when - emitted - 1
		}
		if when > ideal {
			ideal += when - ideal
		} else {
			ideal++
		}
		if gap > 0xffff {
			st.GapSplits++
			gap = 0xffff
		}
		e.Gap = uint16(gap)
		out.Append(e)
		emitted += gap + 1
		if d := ideal - emitted; d > st.CarriedMax {
			st.CarriedMax = d
		}
	})
	st.LostInstructions = ideal - emitted
	return out, st
}

// Merge visits the events of ts in global instruction-time order. Input
// i starts at instruction time offsets[i] (missing entries mean zero)
// and each of its events is scheduled Instructions() after the one
// before it. Ties resolve to the lowest input index, so the schedule is
// deterministic. visit receives the event's input index in ts (empty
// inputs keep their index), the event, and its scheduled time.
func Merge(offsets []uint64, ts []*Trace, visit func(src int, e Event, when uint64)) {
	type cursor struct {
		src  int
		i    int
		when uint64 // instruction time of the event at i
	}
	cs := make([]cursor, 0, len(ts))
	for si, t := range ts {
		if t.Len() == 0 {
			continue
		}
		var off uint64
		if si < len(offsets) {
			off = offsets[si]
		}
		cs = append(cs, cursor{src: si, when: off + t.Events[0].Instructions()})
	}
	for len(cs) > 0 {
		// Cursor removal below preserves relative order, so the first
		// minimum is the lowest input index.
		best := 0
		for i := 1; i < len(cs); i++ {
			if cs[i].when < cs[best].when {
				best = i
			}
		}
		c := &cs[best]
		t := ts[c.src]
		visit(c.src, t.Events[c.i], c.when)
		c.i++
		if c.i >= t.Len() {
			cs = append(cs[:best], cs[best+1:]...)
			continue
		}
		c.when += t.Events[c.i].Instructions()
	}
}

// Rebase returns a copy of the trace with delta added to every address.
// It fails if any access would leave the 32-bit address space.
func Rebase(t *Trace, delta int64) (*Trace, error) {
	out := &Trace{Name: t.Name, Events: make([]Event, t.Len())}
	for i, e := range t.Events {
		a := int64(e.Addr) + delta
		if a < 0 || a+int64(e.Size) > 1<<32 {
			return nil, fmt.Errorf("trace: rebased event %d at %#x+%d leaves the address space", i, e.Addr, delta)
		}
		e.Addr = uint32(a)
		out.Events[i] = e
	}
	return out, nil
}

// CompactRegions remaps the trace onto a dense address layout: every
// occupied 1<<blockBits superblock is assigned a consecutive slot
// (ascending by original block number) and addresses keep their offset
// within the block. Cache index and offset bits are untouched as long
// as blockBits exceeds the cache's index+offset width, so hit/miss
// behavior within each region is preserved while a sparse footprint
// (stack near the top of the address space, heap in the middle) packs
// into the low addresses — which lets per-core window shifts stay
// small. Numerically adjacent occupied blocks stay adjacent, so events
// spanning a block boundary remain contiguous. blockBits must be in
// [4, 31].
func CompactRegions(t *Trace, blockBits uint) (*Trace, error) {
	if blockBits < 4 || blockBits > 31 {
		return nil, fmt.Errorf("trace: compact block bits %d outside [4,31]", blockBits)
	}
	seen := make(map[uint32]struct{})
	for _, e := range t.Events {
		seen[e.Addr>>blockBits] = struct{}{}
		seen[(e.Addr+uint32(e.Size)-1)>>blockBits] = struct{}{}
	}
	blocks := make([]uint32, 0, len(seen))
	for b := range seen {
		blocks = append(blocks, b)
	}
	sort.Slice(blocks, func(i, j int) bool { return blocks[i] < blocks[j] })
	slot := make(map[uint32]uint32, len(blocks))
	for i, b := range blocks {
		slot[b] = uint32(i)
	}
	mask := uint32(1)<<blockBits - 1
	out := &Trace{Name: t.Name, Events: make([]Event, t.Len())}
	for i, e := range t.Events {
		e.Addr = slot[e.Addr>>blockBits]<<blockBits | e.Addr&mask
		out.Events[i] = e
	}
	return out, nil
}

// Region is a contiguous address range [Base, Base+Size) with access
// counts, produced by Regions.
type Region struct {
	Base   uint32
	Size   uint64
	Reads  uint64
	Writes uint64
}

// Regions clusters the trace's footprint into regions separated by at
// least gap unused bytes and reports per-region access counts — a
// data-structure-level view of a workload (stack vs heap vs static, or
// individual arrays).
func Regions(t *Trace, gap uint32) []Region {
	if t.Len() == 0 {
		return nil
	}
	type span struct {
		lo, hi uint32
		r, w   uint64
	}
	spans := make([]span, 0, t.Len())
	for _, e := range t.Events {
		s := span{lo: e.Addr, hi: e.Addr + uint32(e.Size)}
		if e.Kind == Write {
			s.w = 1
		} else {
			s.r = 1
		}
		spans = append(spans, s)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })

	var out []Region
	cur := Region{Base: spans[0].lo}
	curHi := spans[0].lo
	flush := func() {
		cur.Size = uint64(curHi - cur.Base)
		out = append(out, cur)
	}
	for _, s := range spans {
		if s.lo > curHi && uint64(s.lo-curHi) >= uint64(gap) {
			flush()
			cur = Region{Base: s.lo}
			curHi = s.lo
		}
		cur.Reads += s.r
		cur.Writes += s.w
		if s.hi > curHi {
			curHi = s.hi
		}
	}
	flush()
	return out
}
