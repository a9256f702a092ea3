package cache

import (
	"testing"

	"cachewrite/internal/trace"
)

// cfg8k16 is the paper's standard 8KB direct-mapped geometry.
func cfg8k16(hit WriteHitPolicy, miss WriteMissPolicy) Config {
	return Config{Size: 8 << 10, LineSize: 16, Assoc: 1, WriteHit: hit, WriteMiss: miss}
}

func rd(addr uint32, size uint8) trace.Event {
	return trace.Event{Addr: addr, Size: size, Kind: trace.Read}
}

func wr(addr uint32, size uint8) trace.Event {
	return trace.Event{Addr: addr, Size: size, Kind: trace.Write}
}

func TestConfigValidate(t *testing.T) {
	good := cfg8k16(WriteBack, FetchOnWrite)
	if err := good.Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	cases := []struct {
		name string
		mod  func(*Config)
	}{
		{"non-pow2 size", func(c *Config) { c.Size = 3000 }},
		{"zero size", func(c *Config) { c.Size = 0 }},
		{"negative size", func(c *Config) { c.Size = -8 }},
		{"line too small", func(c *Config) { c.LineSize = 2 }},
		{"line too large", func(c *Config) { c.LineSize = 128 }},
		{"non-pow2 line", func(c *Config) { c.LineSize = 12 }},
		{"zero assoc", func(c *Config) { c.Assoc = 0 }},
		{"assoc exceeds lines", func(c *Config) { c.Size = 64; c.LineSize = 16; c.Assoc = 8 }},
		{"non-pow2 sets", func(c *Config) { c.Assoc = 3 }},
		{"bad hit policy", func(c *Config) { c.WriteHit = WriteHitPolicy(9) }},
		{"bad miss policy", func(c *Config) { c.WriteMiss = WriteMissPolicy(9) }},
	}
	for _, tc := range cases {
		c := good
		tc.mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestConfigSetsAndString(t *testing.T) {
	c := cfg8k16(WriteBack, FetchOnWrite)
	if c.Sets() != 512 {
		t.Errorf("Sets() = %d, want 512", c.Sets())
	}
	if got := c.String(); got != "8KB/16B/direct write-back fetch-on-write" {
		t.Errorf("String() = %q", got)
	}
	c.Assoc = 4
	if got := c.String(); got != "8KB/16B/4-way write-back fetch-on-write" {
		t.Errorf("String() = %q", got)
	}
	c.Size = 2 << 20
	if got := c.String(); got[:3] != "2MB" {
		t.Errorf("String() = %q, want 2MB prefix", got)
	}
}

func TestPolicyStrings(t *testing.T) {
	if WriteThrough.String() != "write-through" || WriteBack.String() != "write-back" {
		t.Error("write-hit policy names wrong")
	}
	want := map[WriteMissPolicy]string{
		FetchOnWrite: "fetch-on-write", WriteValidate: "write-validate",
		WriteAround: "write-around", WriteInvalidate: "write-invalidate",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
	if WriteHitPolicy(5).String() == "" || WriteMissPolicy(5).String() == "" {
		t.Error("unknown policies should still render")
	}
}

func TestPolicyPredicates(t *testing.T) {
	if !FetchOnWrite.Allocates() || !WriteValidate.Allocates() ||
		WriteAround.Allocates() || WriteInvalidate.Allocates() {
		t.Error("Allocates wrong")
	}
	ps := WriteMissPolicies()
	if len(ps) != 4 || ps[0] != WriteValidate || ps[3] != FetchOnWrite {
		t.Errorf("WriteMissPolicies() = %v", ps)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic")
		}
	}()
	MustNew(Config{})
}

func TestReadMissThenHit(t *testing.T) {
	c := MustNew(cfg8k16(WriteBack, FetchOnWrite))
	c.Access(rd(0x100, 4))
	c.Access(rd(0x104, 4)) // same line
	c.Access(rd(0x100, 4))
	s := c.Stats()
	if s.Reads != 3 || s.ReadMissEvents != 1 {
		t.Errorf("reads=%d misses=%d, want 3/1", s.Reads, s.ReadMissEvents)
	}
	if s.Fetches != 1 || s.FetchBytes != 16 {
		t.Errorf("fetches=%d bytes=%d, want 1/16", s.Fetches, s.FetchBytes)
	}
	if !c.Probe(0x100).Present {
		t.Error("line not resident after read miss")
	}
}

func TestWriteHitWriteThrough(t *testing.T) {
	c := MustNew(cfg8k16(WriteThrough, FetchOnWrite))
	c.Access(rd(0x100, 4)) // bring the line in
	c.Access(wr(0x100, 4))
	c.Access(wr(0x104, 8))
	s := c.Stats()
	if s.WriteHitEvents != 2 {
		t.Errorf("write hits = %d, want 2", s.WriteHitEvents)
	}
	// Every write goes through, plus the fetch-on-write... no write
	// misses here, so exactly the two word transactions.
	if s.WriteThroughs != 2 || s.WriteThroughBytes != 12 {
		t.Errorf("write-throughs = %d (%dB), want 2 (12B)", s.WriteThroughs, s.WriteThroughBytes)
	}
	if st := c.Probe(0x100); st.Dirty != 0 {
		t.Errorf("write-through line dirty mask %b, want clean", st.Dirty)
	}
	if s.WritesToDirtyLines != 0 {
		t.Error("write-through lines are never dirty")
	}
}

func TestWriteHitWriteBackDirtyTracking(t *testing.T) {
	c := MustNew(cfg8k16(WriteBack, FetchOnWrite))
	c.Access(rd(0x100, 4))
	c.Access(wr(0x100, 4)) // first write: line clean before
	c.Access(wr(0x108, 8)) // second write: line already dirty
	s := c.Stats()
	if s.WriteHitEvents != 2 {
		t.Fatalf("write hits = %d, want 2", s.WriteHitEvents)
	}
	if s.WritesToDirtyLines != 1 {
		t.Errorf("writes to dirty = %d, want 1", s.WritesToDirtyLines)
	}
	if s.WriteThroughs != 0 {
		t.Error("write-back cache produced write-through traffic on hits")
	}
	st := c.Probe(0x100)
	// Bytes 0-3 and 8-15 of the line dirty.
	wantDirty := uint64(0x000f | 0xff00)
	if st.Dirty != wantDirty {
		t.Errorf("dirty mask %#x, want %#x", st.Dirty, wantDirty)
	}
}

func TestFetchOnWriteMiss(t *testing.T) {
	c := MustNew(cfg8k16(WriteBack, FetchOnWrite))
	c.Access(wr(0x200, 8))
	s := c.Stats()
	if s.WriteMissEvents != 1 || s.FetchedWriteMisses != 1 || s.EliminatedWriteMisses != 0 {
		t.Errorf("miss counters = %d/%d/%d", s.WriteMissEvents, s.FetchedWriteMisses, s.EliminatedWriteMisses)
	}
	if s.Fetches != 1 {
		t.Errorf("fetches = %d, want 1 (fetch-on-write)", s.Fetches)
	}
	st := c.Probe(0x200)
	if !st.Present || st.Valid != 0xffff {
		t.Fatalf("line state %+v; want fully valid", st)
	}
	if st.Dirty != 0x00ff {
		t.Errorf("dirty mask %#x, want first 8 bytes", st.Dirty)
	}
	// Read of the rest of the line must hit (it was fetched).
	c.Access(rd(0x208, 8))
	if c.Stats().ReadMissEvents != 0 {
		t.Error("read after fetch-on-write missed")
	}
}

func TestWriteValidateNoFetch(t *testing.T) {
	c := MustNew(cfg8k16(WriteBack, WriteValidate))
	c.Access(wr(0x200, 8))
	s := c.Stats()
	if s.Fetches != 0 {
		t.Fatalf("write-validate fetched %d lines", s.Fetches)
	}
	if s.EliminatedWriteMisses != 1 || s.FetchedWriteMisses != 0 {
		t.Errorf("eliminated=%d fetched=%d, want 1/0", s.EliminatedWriteMisses, s.FetchedWriteMisses)
	}
	st := c.Probe(0x200)
	if st.Valid != 0x00ff || st.Dirty != 0x00ff {
		t.Fatalf("line valid=%#x dirty=%#x, want 0xff/0xff (sub-block)", st.Valid, st.Dirty)
	}
	// Reading the written bytes hits with no fetch.
	c.Access(rd(0x200, 8))
	if c.Stats().ReadMissEvents != 0 {
		t.Error("read of written bytes missed")
	}
	// Reading the invalid half is the paper's induced miss: fetch and
	// count, preserving our dirty bytes.
	c.Access(rd(0x208, 8))
	s = c.Stats()
	if s.ReadMissEvents != 1 || s.PartialValidReadMisses != 1 {
		t.Errorf("partial-valid miss not counted: %d/%d", s.ReadMissEvents, s.PartialValidReadMisses)
	}
	if s.Fetches != 1 {
		t.Errorf("fetches = %d, want 1", s.Fetches)
	}
	st = c.Probe(0x200)
	if st.Valid != 0xffff || st.Dirty != 0x00ff {
		t.Errorf("after fill: valid=%#x dirty=%#x", st.Valid, st.Dirty)
	}
}

func TestWriteValidateWriteThrough(t *testing.T) {
	c := MustNew(cfg8k16(WriteThrough, WriteValidate))
	c.Access(wr(0x200, 8))
	s := c.Stats()
	if s.WriteThroughs != 1 {
		t.Errorf("write-throughs = %d, want 1", s.WriteThroughs)
	}
	st := c.Probe(0x200)
	if st.Valid != 0x00ff || st.Dirty != 0 {
		t.Errorf("valid=%#x dirty=%#x, want partial valid and clean", st.Valid, st.Dirty)
	}
}

func TestWriteAroundLeavesCacheAlone(t *testing.T) {
	c := MustNew(cfg8k16(WriteThrough, WriteAround))
	// Resident line A.
	c.Access(rd(0x100, 4))
	// Write miss to line B mapping to a different set: cache untouched.
	c.Access(wr(0x200, 8))
	s := c.Stats()
	if s.EliminatedWriteMisses != 1 {
		t.Errorf("eliminated = %d, want 1", s.EliminatedWriteMisses)
	}
	if c.Probe(0x200).Present {
		t.Error("write-around allocated a line")
	}
	if s.WriteThroughs != 1 || s.WriteThroughBytes != 8 {
		t.Errorf("write-through transactions = %d (%dB)", s.WriteThroughs, s.WriteThroughBytes)
	}
	// Write miss mapping to line A's set (same index, different tag):
	// the old contents stay resident and readable.
	conflict := uint32(0x100 + 8<<10)
	c.Access(wr(conflict, 8))
	if !c.Probe(0x100).Present {
		t.Error("write-around evicted the old line")
	}
	c.Access(rd(0x100, 4))
	if c.Stats().ReadMissEvents != 1 { // only the initial fill
		t.Error("read of preserved old line missed")
	}
}

func TestWriteInvalidate(t *testing.T) {
	c := MustNew(cfg8k16(WriteThrough, WriteInvalidate))
	c.Access(rd(0x100, 4))
	// A write miss whose index hits line 0x100's set corrupts and
	// invalidates it.
	conflict := uint32(0x100 + 8<<10)
	c.Access(wr(conflict, 8))
	s := c.Stats()
	if s.Invalidates != 1 {
		t.Fatalf("invalidates = %d, want 1", s.Invalidates)
	}
	if s.EliminatedWriteMisses != 1 {
		t.Errorf("eliminated = %d, want 1", s.EliminatedWriteMisses)
	}
	if c.Probe(0x100).Present || c.Probe(conflict).Present {
		t.Error("set should be empty after write-invalidate")
	}
	if s.WriteThroughs != 1 {
		t.Errorf("write-throughs = %d, want 1", s.WriteThroughs)
	}
	// Both the old contents and the written data now miss.
	c.Access(rd(0x100, 4))
	if c.Stats().ReadMissEvents != 2 {
		t.Error("read of invalidated line should miss")
	}
}

func TestWriteInvalidateEmptySet(t *testing.T) {
	c := MustNew(cfg8k16(WriteThrough, WriteInvalidate))
	c.Access(wr(0x100, 4))
	s := c.Stats()
	if s.Invalidates != 0 {
		t.Errorf("invalidated an empty set: %d", s.Invalidates)
	}
	if s.EliminatedWriteMisses != 1 {
		t.Errorf("eliminated = %d, want 1", s.EliminatedWriteMisses)
	}
}

func TestVictimStatistics(t *testing.T) {
	// 64B cache, 16B lines, direct-mapped: 4 sets.
	c := MustNew(Config{Size: 64, LineSize: 16, Assoc: 1,
		WriteHit: WriteBack, WriteMiss: FetchOnWrite})
	c.Access(wr(0x00, 8)) // set 0, dirty 8 bytes (via fetch-on-write)
	c.Access(rd(0x10, 4)) // set 1, clean
	// Evict both with conflicting lines.
	c.Access(rd(0x40, 4)) // set 0: evicts dirty victim
	c.Access(rd(0x50, 4)) // set 1: evicts clean victim
	s := c.Stats()
	if s.Victims != 2 || s.DirtyVictims != 1 {
		t.Fatalf("victims=%d dirty=%d, want 2/1", s.Victims, s.DirtyVictims)
	}
	if s.VictimDirtyBytes != 8 {
		t.Errorf("victim dirty bytes = %d, want 8", s.VictimDirtyBytes)
	}
	if s.VictimBytes != 32 {
		t.Errorf("victim bytes = %d, want 32", s.VictimBytes)
	}
	if s.Writebacks != 1 || s.WritebackBytesFull != 16 || s.WritebackBytesDirty != 8 {
		t.Errorf("writebacks=%d full=%d dirty=%d", s.Writebacks, s.WritebackBytesFull, s.WritebackBytesDirty)
	}
	if got := s.DirtyVictimFraction(); got != 0.5 {
		t.Errorf("DirtyVictimFraction = %v, want 0.5", got)
	}
	if got := s.DirtyBytesPerDirtyVictim(16); got != 0.5 {
		t.Errorf("DirtyBytesPerDirtyVictim = %v, want 0.5", got)
	}
	if got := s.DirtyBytesPerVictim(); got != 0.25 {
		t.Errorf("DirtyBytesPerVictim = %v, want 0.25", got)
	}
}

func TestFlushAccounting(t *testing.T) {
	c := MustNew(cfg8k16(WriteBack, FetchOnWrite))
	c.Access(wr(0x100, 8))
	c.Access(rd(0x200, 4))
	if c.ResidentLines() != 2 || c.DirtyLines() != 1 {
		t.Fatalf("resident=%d dirty=%d", c.ResidentLines(), c.DirtyLines())
	}
	c.Flush()
	s := c.Stats()
	if s.FlushVictims != 2 || s.FlushDirtyVictims != 1 || s.FlushWritebacks != 1 {
		t.Errorf("flush: victims=%d dirty=%d wb=%d", s.FlushVictims, s.FlushDirtyVictims, s.FlushWritebacks)
	}
	if s.FlushVictimDirtyBytes != 8 || s.FlushVictimBytes != 32 {
		t.Errorf("flush bytes: dirty=%d total=%d", s.FlushVictimDirtyBytes, s.FlushVictimBytes)
	}
	if c.ResidentLines() != 0 || c.DirtyLines() != 0 {
		t.Error("cache not empty after flush")
	}
	// Program victims unchanged.
	if s.Victims != 0 {
		t.Error("flush counted as program victims")
	}
	if got := s.DirtyVictimFractionFlushed(); got != 0.5 {
		t.Errorf("flushed dirty fraction = %v, want 0.5", got)
	}
}

func TestLRUReplacement(t *testing.T) {
	// 2-way, 2 sets: 4 lines of 16B = 64B cache.
	c := MustNew(Config{Size: 64, LineSize: 16, Assoc: 2,
		WriteHit: WriteBack, WriteMiss: FetchOnWrite})
	// Set 0 lines: 0x00, 0x40, 0x80 (tags 0,1,2).
	c.Access(rd(0x00, 4))
	c.Access(rd(0x40, 4))
	c.Access(rd(0x00, 4)) // touch 0x00: 0x40 becomes LRU
	c.Access(rd(0x80, 4)) // evicts 0x40
	if !c.Probe(0x00).Present {
		t.Error("recently used line evicted")
	}
	if c.Probe(0x40).Present {
		t.Error("LRU line survived")
	}
	if !c.Probe(0x80).Present {
		t.Error("new line not installed")
	}
	if s := c.Stats(); s.Victims != 1 {
		t.Errorf("victims = %d, want 1", s.Victims)
	}
}

func TestLineCrossingAccess(t *testing.T) {
	// 4B lines: an 8B write touches two lines but is one event.
	c := MustNew(Config{Size: 1 << 10, LineSize: 4, Assoc: 1,
		WriteHit: WriteBack, WriteMiss: FetchOnWrite})
	c.Access(wr(0x100, 8))
	s := c.Stats()
	if s.Writes != 1 || s.WriteMissEvents != 1 {
		t.Errorf("events: writes=%d misses=%d, want 1/1", s.Writes, s.WriteMissEvents)
	}
	if s.Fetches != 2 {
		t.Errorf("fetches = %d, want 2 (two lines)", s.Fetches)
	}
	if !c.Probe(0x100).Present || !c.Probe(0x104).Present {
		t.Error("both lines should be resident")
	}
	// A second 8B write to the same two (now dirty) lines counts as one
	// write to already-dirty lines.
	c.Access(wr(0x100, 8))
	s = c.Stats()
	if s.WritesToDirtyLines != 1 {
		t.Errorf("writes-to-dirty = %d, want 1", s.WritesToDirtyLines)
	}
	// 8B write with only one of two lines dirty: not counted.
	c.Access(rd(0x108, 4))
	c.Access(wr(0x108, 8)) // line 0x108 clean-resident, 0x10c missing
	if s := c.Stats(); s.WritesToDirtyLines != 1 {
		t.Errorf("half-dirty write counted: %d", s.WritesToDirtyLines)
	}
}

func TestStatsHelpers(t *testing.T) {
	s := Stats{Reads: 60, Writes: 40, ReadMissEvents: 6, FetchedWriteMisses: 4,
		WritesToDirtyLines: 10}
	if s.Misses() != 10 || s.Refs() != 100 {
		t.Error("Misses/Refs wrong")
	}
	if s.MissRate() != 0.1 {
		t.Errorf("MissRate = %v", s.MissRate())
	}
	if s.WriteMissFraction() != 0.4 {
		t.Errorf("WriteMissFraction = %v", s.WriteMissFraction())
	}
	if s.WritesToDirtyFraction() != 0.25 {
		t.Errorf("WritesToDirtyFraction = %v", s.WritesToDirtyFraction())
	}
	var zero Stats
	if zero.MissRate() != 0 || zero.WriteMissFraction() != 0 ||
		zero.DirtyVictimFraction() != 0 || zero.DirtyBytesPerVictim() != 0 {
		t.Error("zero stats should produce zero ratios, not NaN")
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Reads: 1, Writes: 2, Fetches: 3, FlushVictims: 4, Invalidates: 5}
	b := Stats{Reads: 10, Writes: 20, Fetches: 30, FlushVictims: 40, Invalidates: 50}
	a.Add(b)
	if a.Reads != 11 || a.Writes != 22 || a.Fetches != 33 || a.FlushVictims != 44 || a.Invalidates != 55 {
		t.Errorf("Add result %+v", a)
	}
}

func TestBacksideTraffic(t *testing.T) {
	s := Stats{Fetches: 2, FetchBytes: 32, WriteThroughs: 3, WriteThroughBytes: 12,
		Writebacks: 1, WritebackBytesFull: 16, WritebackBytesDirty: 10}
	if s.BacksideTransactions() != 6 {
		t.Errorf("transactions = %d, want 6", s.BacksideTransactions())
	}
	if s.BacksideBytes(false) != 60 {
		t.Errorf("bytes full = %d, want 60", s.BacksideBytes(false))
	}
	if s.BacksideBytes(true) != 54 {
		t.Errorf("bytes subblock = %d, want 54", s.BacksideBytes(true))
	}
}

func TestAccessTraceAndInstructionCount(t *testing.T) {
	c := MustNew(cfg8k16(WriteBack, FetchOnWrite))
	tr := &trace.Trace{Events: []trace.Event{
		{Addr: 0x100, Size: 4, Kind: trace.Read, Gap: 9},
		{Addr: 0x104, Size: 4, Kind: trace.Write, Gap: 4},
	}}
	c.AccessTrace(tr)
	if got := c.Stats().Instructions; got != 15 {
		t.Errorf("instructions = %d, want 15", got)
	}
}

func TestStringer(t *testing.T) {
	c := MustNew(cfg8k16(WriteBack, FetchOnWrite))
	if c.String() == "" || c.Config() != cfg8k16(WriteBack, FetchOnWrite) {
		t.Error("String/Config accessors broken")
	}
}

func TestLineSize64FullMask(t *testing.T) {
	c := MustNew(Config{Size: 1 << 10, LineSize: 64, Assoc: 1,
		WriteHit: WriteBack, WriteMiss: FetchOnWrite})
	c.Access(rd(0x0, 4))
	if st := c.Probe(0x0); st.Valid != ^uint64(0) {
		t.Errorf("64B line valid mask %#x", st.Valid)
	}
}

// TestLineCrossingSpans pins the slow path taken when an access spans
// two cache lines (the fast path in Access covers everything else):
// each line is probed independently but the event counts once.
func TestLineCrossingSpans(t *testing.T) {
	cfg := Config{Size: 1 << 10, LineSize: 4, Assoc: 1,
		WriteHit: WriteBack, WriteMiss: FetchOnWrite}

	c := MustNew(cfg)
	c.Access(rd(0x104, 8)) // spans lines 0x104 and 0x108
	s := c.Stats()
	if s.ReadMissEvents != 1 || s.Fetches != 2 || s.FetchBytes != 8 {
		t.Errorf("crossing read: events=%d fetches=%d bytes=%d, want 1/2/8",
			s.ReadMissEvents, s.Fetches, s.FetchBytes)
	}

	c = MustNew(cfg)
	c.Access(wr(0x104, 8))
	s = c.Stats()
	if s.WriteMissEvents != 1 || s.FetchedWriteMisses != 1 || s.Fetches != 2 {
		t.Errorf("crossing write: events=%d fetched=%d fetches=%d, want 1/1/2",
			s.WriteMissEvents, s.FetchedWriteMisses, s.Fetches)
	}
	if a, b := c.Probe(0x104), c.Probe(0x108); a.Dirty != 0xf || b.Dirty != 0xf {
		t.Errorf("crossing write dirty masks %#x %#x, want 0xf 0xf", a.Dirty, b.Dirty)
	}

	// Unaligned odd-size crossing: bytes [2,4) of one line, [4,6) of the
	// next — partial dirty masks on both sides.
	c = MustNew(cfg)
	c.Access(trace.Event{Addr: 0x102, Size: 4, Kind: trace.Write})
	if a, b := c.Probe(0x100), c.Probe(0x104); a.Dirty != 0xc || b.Dirty != 0x3 {
		t.Errorf("unaligned crossing dirty masks %#x %#x, want 0xc 0x3", a.Dirty, b.Dirty)
	}
}

// TestDowngrade: the coherence M→S transition flushes dirty bytes
// through the backside but keeps the line valid and readable.
func TestDowngrade(t *testing.T) {
	c := MustNew(Config{Size: 1 << 10, LineSize: 16, Assoc: 1,
		WriteHit: WriteBack, WriteMiss: FetchOnWrite})
	rec := &seqBackside{}
	c.SetBackside(rec)
	c.Access(trace.Event{Addr: 0x100, Size: 4, Kind: trace.Write})
	lines, dirty := c.Downgrade(0x100, 16)
	if lines != 1 || dirty != 4 {
		t.Fatalf("downgrade = (%d lines, %d dirty), want (1, 4)", lines, dirty)
	}
	st := c.Probe(0x100)
	if !st.Present || st.Dirty != 0 {
		t.Fatalf("after downgrade: %+v, want present and clean", st)
	}
	if c.Stats().Writebacks != 1 || rec.writebacks != 1 {
		t.Errorf("writebacks = %d (backside %d), want 1", c.Stats().Writebacks, rec.writebacks)
	}
	// Idempotent: a second downgrade still sees the line but flushes
	// nothing; a downgrade of an absent line sees nothing.
	if lines, dirty = c.Downgrade(0x100, 16); lines != 1 || dirty != 0 {
		t.Errorf("second downgrade = (%d, %d), want (1, 0)", lines, dirty)
	}
	if lines, dirty = c.Downgrade(0x900, 16); lines != 0 || dirty != 0 {
		t.Errorf("absent downgrade = (%d, %d), want (0, 0)", lines, dirty)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks after idempotent downgrades = %d, want 1", c.Stats().Writebacks)
	}
}

// TestSnoopUpdate: a write-update protocol's remote write refreshes a
// resident copy — written bytes become valid, dirty claims on them are
// released — and misses absent lines without side effects.
func TestSnoopUpdate(t *testing.T) {
	c := MustNew(Config{Size: 1 << 10, LineSize: 16, Assoc: 1,
		WriteHit: WriteBack, WriteMiss: FetchOnWrite})
	c.Access(trace.Event{Addr: 0x200, Size: 8, Kind: trace.Write})
	before := c.Probe(0x200)
	if before.Dirty == 0 {
		t.Fatal("setup: line should be dirty")
	}
	if !c.SnoopUpdate(0x200, 4) {
		t.Fatal("resident line not updated")
	}
	after := c.Probe(0x200)
	if after.Dirty != before.Dirty&^0xf {
		t.Errorf("dirty = %#x, want %#x (low word claim released)", after.Dirty, before.Dirty&^0xf)
	}
	if after.Valid&0xf != 0xf {
		t.Errorf("updated bytes not valid: %#x", after.Valid)
	}
	if c.SnoopUpdate(0x900, 4) {
		t.Error("absent line reported updated")
	}
}

// TestVisitResident: every valid line is reported exactly once with
// its reconstructed address.
func TestVisitResident(t *testing.T) {
	c := MustNew(Config{Size: 1 << 10, LineSize: 16, Assoc: 2,
		WriteHit: WriteBack, WriteMiss: FetchOnWrite})
	c.Access(trace.Event{Addr: 0x100, Size: 4, Kind: trace.Write})
	c.Access(trace.Event{Addr: 0x300, Size: 4, Kind: trace.Read})
	seen := map[uint32]LineState{}
	c.VisitResident(func(addr uint32, st LineState) { seen[addr] = st })
	if len(seen) != 2 {
		t.Fatalf("visited %d lines, want 2: %+v", len(seen), seen)
	}
	if st, ok := seen[0x100]; !ok || st.Dirty == 0 {
		t.Errorf("line 0x100: %+v, want present dirty", st)
	}
	if st, ok := seen[0x300]; !ok || st.Dirty != 0 {
		t.Errorf("line 0x300: %+v, want present clean", st)
	}
}
