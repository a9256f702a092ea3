package trace

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// merged is one Merge visit: the event's address and scheduled time.
type merged struct {
	addr uint32
	when uint64
}

// mergeAll collects the visits of a Merge over ts.
func mergeAll(offsets []uint64, ts ...*Trace) []merged {
	var out []merged
	Merge(offsets, ts, func(_ int, e Event, when uint64) {
		out = append(out, merged{e.Addr, when})
	})
	return out
}

func TestInterleaveByTime(t *testing.T) {
	a := &Trace{Events: []Event{
		{Addr: 0x0, Size: 4, Kind: Read}, // t=1
		{Addr: 0x4, Size: 4, Kind: Read}, // t=2
	}}
	b := &Trace{Events: []Event{
		{Addr: 0x100, Size: 4, Kind: Write, Gap: 2}, // t=3
	}}
	got := mergeAll(nil, a, b)
	want := []merged{{0x0, 1}, {0x4, 2}, {0x100, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("visits = %+v, want %+v", got, want)
	}
}

func TestInterleaveDeterministicTies(t *testing.T) {
	a := &Trace{Events: []Event{{Addr: 0x0, Size: 4, Kind: Read}}}
	b := &Trace{Events: []Event{{Addr: 0x100, Size: 4, Kind: Read}}}
	// Tie at t=1: input order wins.
	got := mergeAll(nil, a, b)
	want := []merged{{0x0, 1}, {0x100, 1}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tie broken against input order: %+v", got)
	}
}

func TestInterleaveEmptyInputs(t *testing.T) {
	if got := mergeAll(nil); len(got) != 0 {
		t.Error("no inputs should visit nothing")
	}
	a := &Trace{Events: []Event{{Addr: 0, Size: 4, Kind: Read}}}
	if got := mergeAll(nil, a, &Trace{}); len(got) != 1 {
		t.Error("empty input mishandled")
	}
}

// TestInterleaveOffsetSplitsOversizedGaps: a quiet period longer than
// the Gap field's 65535-instruction capacity is scheduled exactly —
// Merge keeps instruction time in a uint64 and never truncates it.
func TestInterleaveOffsetSplitsOversizedGaps(t *testing.T) {
	a := &Trace{Events: []Event{{Addr: 0x0, Size: 4, Kind: Read}}} // t=1
	b := &Trace{Events: []Event{
		{Addr: 0x100, Size: 4, Kind: Read}, // t=offset+1
		{Addr: 0x104, Size: 4, Kind: Read}, // t=offset+2
		{Addr: 0x108, Size: 4, Kind: Read}, // t=offset+3
	}}
	const offset = 100000
	got := mergeAll([]uint64{0, offset}, a, b)
	want := []merged{{0x0, 1}, {0x100, offset + 1}, {0x104, offset + 2}, {0x108, offset + 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("visits = %+v, want %+v", got, want)
	}
}

// TestInterleaveOffsetLostInstructions: an oversized offset with no
// later events loses no instruction time either.
func TestInterleaveOffsetLostInstructions(t *testing.T) {
	a := &Trace{Events: []Event{{Addr: 0x0, Size: 4, Kind: Read}}}
	b := &Trace{Events: []Event{{Addr: 0x100, Size: 4, Kind: Read}}}
	got := mergeAll([]uint64{0, 200000}, a, b)
	if len(got) != 2 || got[1].when != 200001 {
		t.Errorf("visits = %+v, want the last at 200001", got)
	}
}

// TestInterleaveTieAfterCursorRemoval pins deterministic tie-breaking
// by original input order even after an earlier input exhausts
// mid-merge and its cursor is removed from the working set.
func TestInterleaveTieAfterCursorRemoval(t *testing.T) {
	// a exhausts at t=1; b and c then tie at t=3. Input order must
	// still favor b, not whichever cursor slot a's removal shifted.
	a := &Trace{Events: []Event{{Addr: 0xa0, Size: 4, Kind: Read}}}         // t=1
	b := &Trace{Events: []Event{{Addr: 0xb0, Size: 4, Kind: Read, Gap: 2}}} // t=3
	c := &Trace{Events: []Event{{Addr: 0xc0, Size: 4, Kind: Read, Gap: 2}}} // t=3
	got := mergeAll(nil, a, b, c)
	want := []merged{{0xa0, 1}, {0xb0, 3}, {0xc0, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("tie after removal broken against input order: %+v", got)
	}
}

// TestInterleaveOffsetEmptyInputs: empty traces are skipped whether or
// not they carry offsets, and an all-empty merge visits nothing.
func TestInterleaveOffsetEmptyInputs(t *testing.T) {
	if got := mergeAll([]uint64{5, 10}); len(got) != 0 {
		t.Errorf("no inputs: visits %+v", got)
	}
	a := &Trace{Events: []Event{{Addr: 0, Size: 4, Kind: Read}}}
	got := mergeAll([]uint64{7, 3}, &Trace{}, a)
	if want := []merged{{0, 4}}; !reflect.DeepEqual(got, want) {
		t.Errorf("empty first input mishandled: visits %+v, want %+v", got, want)
	}
}

// TestMergeSourceIndexWithEmptyInputs: Merge reports each event's
// index in the input list, not its index among the non-empty inputs,
// and its scheduled time with the input's offset applied. A coherent
// replay dispatches each event to the core with that index.
func TestMergeSourceIndexWithEmptyInputs(t *testing.T) {
	a := &Trace{Events: []Event{{Addr: 0xa0, Size: 4, Kind: Read}, {Addr: 0xa4, Size: 4, Kind: Write, Gap: 4}}}
	b := &Trace{Events: []Event{{Addr: 0xb0, Size: 4, Kind: Read}}}
	type visit struct {
		src  int
		addr uint32
		when uint64
	}
	var got []visit
	Merge([]uint64{0, 2, 0, 3}, []*Trace{{}, a, {}, b}, func(src int, e Event, when uint64) {
		got = append(got, visit{src, e.Addr, when})
	})
	// a's events fall at 2+1 and 3+5, b's only event at 3+1.
	want := []visit{{1, 0xa0, 3}, {3, 0xb0, 4}, {1, 0xa4, 8}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("visits = %+v, want %+v", got, want)
	}
}

// TestRebaseUpperBoundary: an access ending exactly at the top of the
// 32-bit space (a+Size == 1<<32) is legal; one byte further is not.
func TestRebaseUpperBoundary(t *testing.T) {
	a := &Trace{Events: []Event{{Addr: 0xfffffff0, Size: 8, Kind: Read}}}
	out, err := Rebase(a, 8) // ends at 0x100000000 exactly
	if err != nil {
		t.Fatalf("boundary access rejected: %v", err)
	}
	if out.Events[0].Addr != 0xfffffff8 {
		t.Errorf("addr = %#x", out.Events[0].Addr)
	}
	if _, err := Rebase(a, 9); err == nil {
		t.Error("access one past the boundary accepted")
	}
}

func TestRebase(t *testing.T) {
	a := &Trace{Events: []Event{{Addr: 0x100, Size: 4, Kind: Read}}}
	out, err := Rebase(a, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if out.Events[0].Addr != 0x1100 {
		t.Errorf("addr = %#x", out.Events[0].Addr)
	}
	// Original untouched.
	if a.Events[0].Addr != 0x100 {
		t.Error("Rebase mutated input")
	}
	if _, err := Rebase(a, -0x200); err == nil {
		t.Error("negative wrap accepted")
	}
	if _, err := Rebase(a, 1<<32-8); err == nil {
		t.Error("overflow accepted")
	}
}

func TestCompactRegions(t *testing.T) {
	// Three sparse superblocks (the yacc shape: static data near 0,
	// heap in the middle, stack near the top) plus an event that spans
	// a boundary between two adjacent occupied blocks.
	tr := &Trace{Name: "sparse", Events: []Event{
		{Addr: 0x0000_1234, Size: 4, Kind: Read},
		{Addr: 0x1000_0008, Size: 8, Kind: Write, Gap: 3},
		{Addr: 0x7fff_ff00, Size: 4, Kind: Write},
		{Addr: 0x7ffffffc, Size: 8, Kind: Read}, // crosses into block 0x80
	}}
	out, err := CompactRegions(tr, 24)
	if err != nil {
		t.Fatal(err)
	}
	// Occupied blocks 0x00, 0x10, 0x7f, 0x80 -> slots 0..3; offsets and
	// every non-address field survive.
	want := []uint32{0x0000_1234, 0x0100_0008, 0x02ff_ff00, 0x02ff_fffc}
	for i, e := range out.Events {
		if e.Addr != want[i] {
			t.Errorf("event %d addr = %#x, want %#x", i, e.Addr, want[i])
		}
		if e.Size != tr.Events[i].Size || e.Kind != tr.Events[i].Kind || e.Gap != tr.Events[i].Gap {
			t.Errorf("event %d lost non-address fields: %+v", i, e)
		}
	}
	// The boundary-spanning event stays contiguous: its last byte lands
	// in the next compact block.
	if end := out.Events[3].Addr + 8; end != 0x0300_0004 {
		t.Errorf("spanning event ends at %#x", end)
	}
	if _, err := CompactRegions(tr, 3); err == nil {
		t.Error("block bits below range accepted")
	}
	if _, err := CompactRegions(tr, 32); err == nil {
		t.Error("block bits above range accepted")
	}
}

// compactRegionsMaps is the two-map CompactRegions that the
// sort-and-dedup replaced, kept as the reference for
// TestCompactRegionsMatchesMaps.
func compactRegionsMaps(t *Trace, blockBits uint) *Trace {
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
	return out
}

// TestCompactRegionsMatchesMaps: on random sparse traces — random
// block sizes, events spanning block boundaries, runs of adjacent
// occupied blocks, a single block, and the empty trace — CompactRegions
// equals the two-map reference event for event.
func TestCompactRegionsMatchesMaps(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 300; iter++ {
		bits := uint(4 + rng.Intn(28))
		size := uint64(1) << bits
		// A few sparse blocks, each followed by a random run of
		// adjacent ones; iteration 0 is the empty trace and every
		// tenth trace stays in a single block.
		var blocks []uint64
		for n := 1 + rng.Intn(6); len(blocks) < n; {
			b := uint64(rng.Uint32()) >> bits
			for run := rng.Intn(3); run >= 0 && b<<bits < 1<<32; run-- {
				blocks = append(blocks, b)
				b++
			}
		}
		if iter%10 == 1 {
			blocks = blocks[:1]
		}
		tr := &Trace{Name: "sparse"}
		for i := 0; iter > 0 && i < 1+rng.Intn(200); i++ {
			b := blocks[rng.Intn(len(blocks))]
			e := Event{Size: uint8(1 + rng.Intn(8)), Gap: uint16(rng.Intn(4)), Kind: Kind(rng.Intn(2))}
			off := rng.Uint64() % size
			if rng.Intn(4) == 0 {
				// Straddle the boundary into the next block.
				off = size - 1 - uint64(rng.Intn(int(e.Size)))
			}
			if a := b<<bits | off; a+uint64(e.Size) <= 1<<32 {
				e.Addr = uint32(a)
				tr.Append(e)
			}
		}
		got, err := CompactRegions(tr, bits)
		if err != nil {
			t.Fatal(err)
		}
		if want := compactRegionsMaps(tr, bits); !reflect.DeepEqual(got, want) {
			t.Fatalf("iteration %d (%d bits, %d events): sort-and-dedup differs from the map reference", iter, bits, tr.Len())
		}
	}
}
