// Package hierarchy composes a two-level memory hierarchy around the
// first-level data cache: L1 → (optional write cache) → L2 → memory.
// The paper assumes "two or more levels of caching" (§1); this package
// provides that second level and the measurement points for the traffic
// "out the back" of the first-level cache that §5 characterizes.
package hierarchy

import (
	"fmt"

	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
	"cachewrite/internal/writecache"
)

// Config describes the hierarchy.
type Config struct {
	// L1 is the first-level data cache configuration.
	L1 cache.Config
	// WriteCache, if non-nil, places a write cache between L1 and L2.
	// Only sensible when L1 is write-through (as in the paper's Fig 6).
	WriteCache *writecache.Config
	// VictimMode additionally runs the write cache as a victim cache
	// (the paper notes the two structures can be merged, citing Jouppi
	// 1990): clean L1 victims are captured and L1 line fetches that hit
	// a captured victim skip the L2. Requires WriteCache with a line
	// size equal to L1's.
	VictimMode bool
	// L2, if non-nil, adds a second-level cache. When nil the back side
	// of L1 (or the write cache) talks straight to memory.
	L2 *cache.Config
	// Inclusive enforces multi-level inclusion: an L2 eviction
	// back-invalidates any L1 lines it covered, with L1 dirty data
	// merged into the outgoing victim. Requires an L2.
	Inclusive bool
}

// Validate reports whether the configuration is realizable.
func (c Config) Validate() error {
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("hierarchy: L1: %w", err)
	}
	if c.WriteCache != nil {
		if err := c.WriteCache.Validate(); err != nil {
			return fmt.Errorf("hierarchy: write cache: %w", err)
		}
		if c.L1.WriteHit != cache.WriteThrough {
			return fmt.Errorf("hierarchy: a write cache requires a write-through L1 (got %s)", c.L1.WriteHit)
		}
	}
	if c.VictimMode {
		if c.WriteCache == nil {
			return fmt.Errorf("hierarchy: victim mode requires a write cache")
		}
		if c.WriteCache.LineSize != c.L1.LineSize {
			return fmt.Errorf("hierarchy: victim mode needs write-cache lines (%dB) matching L1 lines (%dB)",
				c.WriteCache.LineSize, c.L1.LineSize)
		}
	}
	if c.Inclusive && c.L2 == nil {
		return fmt.Errorf("hierarchy: inclusion requires an L2")
	}
	if c.L2 != nil {
		if err := c.L2.Validate(); err != nil {
			return fmt.Errorf("hierarchy: L2: %w", err)
		}
		if c.L2.LineSize < c.L1.LineSize {
			return fmt.Errorf("hierarchy: L2 line size %dB smaller than L1's %dB", c.L2.LineSize, c.L1.LineSize)
		}
		if c.L2.Size < c.L1.Size {
			return fmt.Errorf("hierarchy: L2 size %dB smaller than L1's %dB (inclusion impossible)", c.L2.Size, c.L1.Size)
		}
	}
	return nil
}

// Stats aggregates the hierarchy's traffic counters.
type Stats struct {
	// L1ToL2Transactions counts transactions leaving the L1 complex
	// (after write-cache merging): line fetches, dirty write-backs, and
	// write-through words or write-cache evictions.
	L1ToL2Transactions uint64
	// L1ToL2Bytes is the same traffic in bytes (whole-line write-backs).
	L1ToL2Bytes uint64
	// L2ToMemTransactions and L2ToMemBytes count traffic at the back of
	// the L2 (zero when no L2 is configured). L2ToMemBytes charges
	// write-backs their full line size, matching a memory port without
	// sub-block write capability.
	L2ToMemTransactions uint64
	L2ToMemBytes        uint64
	// L2ToMemWritebacks counts the write-back transactions within
	// L2ToMemTransactions; L2ToMemWritebackBytes is their full-line
	// share of L2ToMemBytes and L2ToMemDirtyBytes the bytes actually
	// dirty in those victims, so sub-block dirty-write-back accounting
	// (bus.Config.SubblockWriteback) is exact at the L2 backside too.
	L2ToMemWritebacks     uint64
	L2ToMemWritebackBytes uint64
	L2ToMemDirtyBytes     uint64
	// VictimHits counts L1 line fetches satisfied by the write cache in
	// victim mode (each one is an avoided L1->L2 transaction).
	VictimHits uint64
	// BackInvalidations counts L1 lines invalidated to preserve
	// inclusion when the L2 evicted; InclusionDirtyBytes is the L1 dirty
	// data merged into outgoing L2 victims in the process.
	BackInvalidations   uint64
	InclusionDirtyBytes uint64
}

// L2ToMemBytesSubblock returns the L2 back-side byte traffic with
// write-backs charged only their dirty bytes — the traffic a memory
// port with sub-block write capability would carry
// (bus.Config.SubblockWriteback at the L2 backside).
func (s Stats) L2ToMemBytesSubblock() uint64 {
	return s.L2ToMemBytes - s.L2ToMemWritebackBytes + s.L2ToMemDirtyBytes
}

// Hierarchy is a composed simulator. Drive it with Access/AccessTrace
// and read the per-level statistics afterwards.
type Hierarchy struct {
	cfg Config
	l1  *cache.Cache
	wc  *writecache.Cache
	bs  *Backside
}

// New builds the hierarchy.
func New(cfg Config) (*Hierarchy, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	h := &Hierarchy{cfg: cfg}
	var err error
	if h.l1, err = cache.New(cfg.L1); err != nil {
		return nil, err
	}
	if h.bs, err = NewBackside(cfg.L2); err != nil {
		return nil, err
	}
	if cfg.Inclusive {
		h.bs.l2.SetBackside(inclusivePort{memPort{h.bs}, h})
	}
	if cfg.WriteCache == nil {
		h.l1.SetBackside(h.bs)
		return h, nil
	}
	if h.wc, err = writecache.New(*cfg.WriteCache); err != nil {
		return nil, err
	}
	h.wc.SetOnEvict(func(lineAddr uint32) {
		h.bs.forward(lineAddr, h.wc.LineSize(), trace.Write)
	})
	h.l1.SetBackside(&l1Sink{h: h})
	return h, nil
}

// Access simulates one event through the hierarchy.
func (h *Hierarchy) Access(e trace.Event) { h.l1.Access(e) }

// AccessTrace simulates the whole trace.
func (h *Hierarchy) AccessTrace(t *trace.Trace) {
	for _, e := range t.Events {
		h.l1.Access(e)
	}
}

// Flush drains dirty state from every level (flush-stop accounting).
func (h *Hierarchy) Flush() {
	h.l1.Flush()
	if h.wc != nil {
		h.wc.Drain()
	}
	if h.bs.l2 != nil {
		h.bs.l2.Flush()
	}
}

// L1 returns the first-level cache (for its statistics).
func (h *Hierarchy) L1() *cache.Cache { return h.l1 }

// L2 returns the second-level cache, or nil.
func (h *Hierarchy) L2() *cache.Cache { return h.bs.l2 }

// WriteCache returns the write cache, or nil.
func (h *Hierarchy) WriteCache() *writecache.Cache { return h.wc }

// Stats returns the hierarchy-level traffic counters.
func (h *Hierarchy) Stats() Stats { return h.bs.stats }

// l1Sink sits between the L1 and the back side when a write cache is
// configured: it routes write words through the write cache and, in
// victim mode, captures clean victims and serves fetches that hit them.
type l1Sink struct{ h *Hierarchy }

func (s *l1Sink) FetchLine(addr uint32, size int) {
	h := s.h
	if h.cfg.VictimMode && h.wc.ProbeVictim(addr, uint8(size)) {
		// The line is a captured victim: refill from the write cache and
		// skip the lower level entirely.
		h.bs.stats.VictimHits++
		return
	}
	h.bs.FetchLine(addr, size)
}

func (s *l1Sink) WritebackLine(addr uint32, size, dirtyBytes int) {
	s.h.bs.WritebackLine(addr, size, dirtyBytes)
}

// WriteWord buffers the word in the write cache; only its evictions
// proceed to the next level, through the SetOnEvict handler registered
// in New.
func (s *l1Sink) WriteWord(addr uint32, size uint8) { s.h.wc.Write(addr, size) }

// ObserveVictim captures clean L1 victims into the write cache when
// victim mode is on. (Dirty victims cannot occur behind a write-through
// L1.) Evictions forced by the allocation are accounted by the write
// cache's SetOnEvict handler.
func (s *l1Sink) ObserveVictim(addr uint32, size, dirtyBytes int) {
	h := s.h
	if !h.cfg.VictimMode || dirtyBytes != 0 {
		return
	}
	h.wc.AllocateVictim(addr)
}

// Backside is the one L1→L2→memory accounting path: the link counters
// at the back of the first level, the optional L2, and the memory-port
// counters at the back of the L2. It implements cache.Backside. A
// Hierarchy routes into it after its write-cache and victim handling;
// a multi-core system attaches every private L1 to one Backside, so
// the cores share the L2 and the counters.
type Backside struct {
	l2    *cache.Cache
	stats Stats
}

// NewBackside builds a back side, with an L2 of configuration l2 when
// l2 is non-nil and a direct path to memory otherwise.
func NewBackside(l2 *cache.Config) (*Backside, error) {
	b := &Backside{}
	if l2 != nil {
		c, err := cache.New(*l2)
		if err != nil {
			return nil, err
		}
		c.SetBackside(memPort{b})
		b.l2 = c
	}
	return b, nil
}

// L2 returns the second-level cache, or nil.
func (b *Backside) L2() *cache.Cache { return b.l2 }

// Stats returns the traffic counters accumulated so far. The back side
// counts the L1ToL2* and L2ToMem* fields; a Hierarchy adds its
// write-cache and inclusion counters to the same struct.
func (b *Backside) Stats() Stats { return b.stats }

// FetchLine implements cache.Backside.
func (b *Backside) FetchLine(addr uint32, size int) { b.forward(addr, size, trace.Read) }

// WritebackLine implements cache.Backside. Write-backs, including
// coherence-forced flushes, cross the link as whole lines.
func (b *Backside) WritebackLine(addr uint32, size, dirtyBytes int) {
	b.forward(addr, size, trace.Write)
}

// WriteWord implements cache.Backside.
func (b *Backside) WriteWord(addr uint32, size uint8) { b.forward(addr, int(size), trace.Write) }

// forward counts one L1→L2 transaction of size bytes and passes it to
// the L2, if any.
func (b *Backside) forward(addr uint32, size int, kind trace.Kind) {
	b.stats.L1ToL2Transactions++
	b.stats.L1ToL2Bytes += uint64(size)
	if b.l2 != nil {
		b.l2.Access(trace.Event{Addr: addr, Size: uint8(size), Kind: kind})
	}
}

// memPort counts traffic at the back of the L2.
type memPort struct{ b *Backside }

func (m memPort) FetchLine(addr uint32, size int) {
	m.b.stats.L2ToMemTransactions++
	m.b.stats.L2ToMemBytes += uint64(size)
}

func (m memPort) WritebackLine(addr uint32, size, dirtyBytes int) {
	st := &m.b.stats
	st.L2ToMemTransactions++
	st.L2ToMemBytes += uint64(size)
	st.L2ToMemWritebacks++
	st.L2ToMemWritebackBytes += uint64(size)
	st.L2ToMemDirtyBytes += uint64(dirtyBytes)
}

func (m memPort) WriteWord(addr uint32, size uint8) {
	m.b.stats.L2ToMemTransactions++
	m.b.stats.L2ToMemBytes += uint64(size)
}

// inclusivePort is the memory port of an inclusive hierarchy: it also
// implements cache.VictimObserver, so every L2 victim (clean or dirty)
// back-invalidates its L1 cover.
type inclusivePort struct {
	memPort
	h *Hierarchy
}

func (p inclusivePort) ObserveVictim(addr uint32, size, dirtyBytes int) {
	lines, l1Dirty := p.h.l1.InvalidateRange(addr, size)
	p.b.stats.BackInvalidations += uint64(lines)
	p.b.stats.InclusionDirtyBytes += uint64(l1Dirty)
}
