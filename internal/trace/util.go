package trace

import (
	"fmt"
	"slices"
)

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
	// Consecutive events mostly stay in one block, so appending only
	// on a change keeps the list short before the sort-and-dedup.
	var blocks []uint32
	for _, e := range t.Events {
		for _, b := range [2]uint32{e.Addr >> blockBits, (e.Addr + uint32(e.Size) - 1) >> blockBits} {
			if n := len(blocks); n == 0 || blocks[n-1] != b {
				blocks = append(blocks, b)
			}
		}
	}
	slices.Sort(blocks)
	blocks = slices.Compact(blocks)
	mask := uint32(1)<<blockBits - 1
	out := &Trace{Name: t.Name, Events: make([]Event, t.Len())}
	for i, e := range t.Events {
		slot, _ := slices.BinarySearch(blocks, e.Addr>>blockBits)
		e.Addr = uint32(slot)<<blockBits | e.Addr&mask
		out.Events[i] = e
	}
	return out, nil
}
