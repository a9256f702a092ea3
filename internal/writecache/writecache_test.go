package writecache

import (
	"testing"

	"cachewrite/internal/trace"
)

func TestConfigValidate(t *testing.T) {
	if err := (Config{Entries: 5, LineSize: 8}).Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if err := (Config{Entries: 0, LineSize: 8}).Validate(); err != nil {
		t.Fatalf("zero entries must be legal (figure 7's origin): %v", err)
	}
	bad := []Config{
		{Entries: -1, LineSize: 8},
		{Entries: 4, LineSize: 0},
		{Entries: 4, LineSize: 12},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New accepted bad config %d", i)
		}
	}
}

func TestZeroEntriesPassThrough(t *testing.T) {
	c, _ := New(Config{Entries: 0, LineSize: 8})
	if ev := c.Write(0x100, 8); ev != 1 {
		t.Errorf("evicted = %d, want 1 (pass-through)", ev)
	}
	s := c.Stats()
	if s.Merged != 0 || s.Evicted != 1 {
		t.Errorf("merged=%d evicted=%d", s.Merged, s.Evicted)
	}
	if s.RemovedFraction() != 0 {
		t.Error("zero-entry cache removed traffic")
	}
}

func TestMergeSameLine(t *testing.T) {
	c, _ := New(Config{Entries: 4, LineSize: 8})
	c.Write(0x100, 4)
	c.Write(0x104, 4) // same 8B line
	s := c.Stats()
	if s.Merged != 1 || s.Writes != 2 {
		t.Errorf("merged=%d writes=%d, want 1/2", s.Merged, s.Writes)
	}
	if s.RemovedFraction() != 0.5 {
		t.Errorf("RemovedFraction = %v", s.RemovedFraction())
	}
	if c.Resident() != 1 {
		t.Errorf("resident = %d, want 1", c.Resident())
	}
}

func TestLRUEviction(t *testing.T) {
	c, _ := New(Config{Entries: 2, LineSize: 8})
	c.Write(0x100, 8)
	c.Write(0x200, 8)
	c.Write(0x100, 8) // touch 0x100: 0x200 becomes LRU
	if ev := c.Write(0x300, 8); ev != 1 {
		t.Fatalf("evicted = %d, want 1", ev)
	}
	// 0x200 must be gone; 0x100 must still merge.
	if merged := c.Write(0x200, 8); merged == 0 {
		// Write returns evictions, not merge status — check via stats.
	}
	s := c.Stats()
	// Writes so far: 5. Merges: the 0x100 touch (1). The final 0x200
	// write must NOT have merged (it was evicted), so merges stay 1...
	// plus the 0x100 write after eviction if issued. Re-check precisely:
	if s.Merged != 1 {
		t.Errorf("merged = %d, want 1 (LRU evicted the right entry)", s.Merged)
	}
}

func TestOnEvictAddresses(t *testing.T) {
	c, _ := New(Config{Entries: 1, LineSize: 8})
	var got []uint32
	c.SetOnEvict(func(a uint32) { got = append(got, a) })
	c.Write(0x100, 8)
	c.Write(0x200, 8) // evicts line 0x100
	c.Drain()         // evicts line 0x200
	if len(got) != 2 || got[0] != 0x100 || got[1] != 0x200 {
		t.Fatalf("evicted addresses %#x, want [0x100 0x200]", got)
	}
	if c.Resident() != 0 {
		t.Errorf("resident after drain = %d", c.Resident())
	}
}

func TestDrainCountsOnlyDirty(t *testing.T) {
	c, _ := New(Config{Entries: 4, LineSize: 8})
	c.Write(0x100, 8)
	c.AllocateVictim(0x200) // clean victim-cache entry
	n := c.Drain()
	if n != 1 {
		t.Errorf("drained %d dirty entries, want 1", n)
	}
}

func TestVictimCacheMode(t *testing.T) {
	c, _ := New(Config{Entries: 2, LineSize: 8})
	c.AllocateVictim(0x100)
	if !c.ProbeVictim(0x100, 4) {
		t.Error("victim line not readable")
	}
	if c.ProbeVictim(0x300, 4) {
		t.Error("phantom read hit")
	}
	s := c.Stats()
	if s.ReadProbes != 2 || s.ReadHits != 1 {
		t.Errorf("probes=%d hits=%d", s.ReadProbes, s.ReadHits)
	}
	// Re-allocating the same victim is idempotent.
	if ev := c.AllocateVictim(0x100); ev != 0 {
		t.Errorf("re-allocating victim evicted %d", ev)
	}
	// Clean victims evict silently (no write-buffer traffic).
	c.AllocateVictim(0x200)
	if ev := c.AllocateVictim(0x300); ev != 0 {
		t.Errorf("clean eviction reported %d dirty evictions", ev)
	}
}

func TestVictimModeZeroEntries(t *testing.T) {
	c, _ := New(Config{Entries: 0, LineSize: 8})
	if c.AllocateVictim(0x100) != 0 {
		t.Error("zero-entry victim allocation evicted")
	}
	if c.ProbeVictim(0x100, 4) {
		t.Error("zero-entry cache hit a read")
	}
}

func TestSpanningWrite(t *testing.T) {
	// 8B write over 4B lines occupies two entries but counts one write.
	c, _ := New(Config{Entries: 4, LineSize: 4})
	c.Write(0x100, 8)
	if c.Resident() != 2 {
		t.Errorf("resident = %d, want 2", c.Resident())
	}
	s := c.Stats()
	if s.Writes != 1 {
		t.Errorf("writes = %d, want 1", s.Writes)
	}
	// A spanning write merges only when every spanned line is resident.
	c.Write(0x100, 8)
	if c.Stats().Merged != 1 {
		t.Errorf("merged = %d, want 1", c.Stats().Merged)
	}
}

func TestRunFiltersReads(t *testing.T) {
	c, _ := New(Config{Entries: 4, LineSize: 8})
	tr := &trace.Trace{Events: []trace.Event{
		{Addr: 0x100, Size: 4, Kind: trace.Read},
		{Addr: 0x100, Size: 4, Kind: trace.Write},
		{Addr: 0x104, Size: 4, Kind: trace.Write},
	}}
	c.Run(tr)
	s := c.Stats()
	if s.Writes != 2 || s.Merged != 1 {
		t.Errorf("writes=%d merged=%d, want 2/1", s.Writes, s.Merged)
	}
}

func TestLineSizeAccessor(t *testing.T) {
	c, _ := New(Config{Entries: 4, LineSize: 8})
	if c.LineSize() != 8 {
		t.Errorf("LineSize = %d", c.LineSize())
	}
}

// TestMoreEntriesNeverWorse: write-cache removal is monotone in entry
// count (the paper's Fig 7 curves never decrease).
func TestMoreEntriesNeverWorse(t *testing.T) {
	var tr trace.Trace
	for i := 0; i < 3000; i++ {
		tr.Append(trace.Event{Addr: uint32((i*7)%97) * 8, Size: 8, Kind: trace.Write})
	}
	prev := -1.0
	for n := 0; n <= 16; n++ {
		c, _ := New(Config{Entries: n, LineSize: 8})
		c.Run(&tr)
		f := c.Stats().RemovedFraction()
		if f < prev-1e-9 {
			t.Fatalf("removal decreased at %d entries: %v -> %v", n, prev, f)
		}
		prev = f
	}
}

func TestRemovedFractionZeroWrites(t *testing.T) {
	var s Stats
	if s.RemovedFraction() != 0 {
		t.Error("zero writes should give zero fraction")
	}
}

func TestProbeVictim(t *testing.T) {
	c, _ := New(Config{Entries: 2, LineSize: 16})
	// Dirty (partial) entries never serve refills.
	c.Write(0x100, 4)
	if c.ProbeVictim(0x100, 16) {
		t.Error("dirty partial entry served a refill")
	}
	// Captured victims do.
	c.AllocateVictim(0x200)
	if !c.ProbeVictim(0x200, 16) {
		t.Error("captured victim not served")
	}
	// Capturing a victim for a dirty entry promotes it to full.
	c.AllocateVictim(0x100)
	if !c.ProbeVictim(0x100, 16) {
		t.Error("promoted entry not served")
	}
	// Misses and zero-entry caches.
	if c.ProbeVictim(0x900, 16) {
		t.Error("phantom victim hit")
	}
	z, _ := New(Config{Entries: 0, LineSize: 16})
	if z.ProbeVictim(0x100, 16) {
		t.Error("zero-entry cache hit")
	}
	s := c.Stats()
	if s.ReadProbes == 0 || s.ReadHits == 0 {
		t.Error("victim probes not counted")
	}
}

func TestProbeVictimSpanning(t *testing.T) {
	// A refill spanning two write-cache lines requires both full.
	c, _ := New(Config{Entries: 4, LineSize: 8})
	c.AllocateVictim(0x100)
	if c.ProbeVictim(0x100, 16) {
		t.Error("half-resident span served")
	}
	c.AllocateVictim(0x108)
	if !c.ProbeVictim(0x100, 16) {
		t.Error("fully-resident span not served")
	}
}
