package cache

import (
	"fmt"
	"math/bits"

	"cachewrite/internal/trace"
)

// line is one cache line's metadata. Valid and dirty are per-byte
// bitmasks (bit i covers byte i of the line); LineSize is capped at 64
// so a single word suffices. Sub-block valid bits are exactly the
// hardware write-validate requires (paper §4); per-byte dirty bits give
// the §5.2 dirty-byte statistics.
type line struct {
	tag   uint32
	valid uint64
	dirty uint64
	// lru is the last-touch stamp (LRU replacement); born is the
	// allocation stamp (FIFO replacement).
	lru  uint64
	born uint64
}

// Backside receives the cache's back-side traffic, allowing a second
// cache level (or any traffic sink) to be composed behind this one.
// All methods carry full addresses so the next level can index
// correctly. A nil backside is legal and means "count only".
type Backside interface {
	// FetchLine is called for every line fetch of size bytes at the
	// line-aligned address addr.
	FetchLine(addr uint32, size int)
	// WritebackLine is called for every dirty victim write-back:
	// size is the full line size, dirtyBytes the number of dirty bytes
	// (for sub-block write-back modelling).
	WritebackLine(addr uint32, size, dirtyBytes int)
	// WriteWord is called for every word passed through on
	// write-through, write-around or write-invalidate writes.
	WriteWord(addr uint32, size uint8)
}

// VictimObserver is an optional extension of Backside: when the
// attached backside also implements it, the cache reports every valid
// victim line (clean or dirty) at replacement time. A victim cache
// (writecache in victim mode) uses this to capture clean victims,
// which WritebackLine alone never sees.
type VictimObserver interface {
	// ObserveVictim is called once per replaced valid line with its
	// address, the line size and the count of dirty bytes (0 for clean
	// victims).
	ObserveVictim(addr uint32, size, dirtyBytes int)
}

// Cache simulates one level of data cache. It is not safe for
// concurrent use; simulate each cache from a single goroutine.
type Cache struct {
	cfg       Config
	lines     []line // sets*assoc, way-major within a set
	lineShift uint
	lineSize  uint32 // cfg.LineSize, hoisted for the access hot loop
	lineMask  uint32 // cfg.LineSize - 1
	setMask   uint32
	setShift  uint
	fullMask  uint64
	tick      uint64
	rng       uint64 // deterministic state for Random replacement
	stats     Stats
	backside  Backside
	// victimObs caches the Backside's VictimObserver side, hoisting the
	// per-eviction interface type assertion out of the hot loop.
	victimObs VictimObserver
	// class is the batch kernel selected for this configuration (see
	// kernel.go); chosen once here so AccessBatch dispatches with a
	// single switch instead of re-deriving the config class per window.
	class kernelClass
}

// SetBackside attaches a back-side traffic sink (nil detaches).
func (c *Cache) SetBackside(b Backside) {
	c.backside = b
	c.victimObs, _ = b.(VictimObserver)
}

// New builds a cache for the configuration.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Sets()
	c := &Cache{
		cfg:       cfg,
		lines:     make([]line, sets*cfg.Assoc),
		lineShift: uint(bits.TrailingZeros(uint(cfg.LineSize))),
		lineSize:  uint32(cfg.LineSize),
		lineMask:  uint32(cfg.LineSize - 1),
		setMask:   uint32(sets - 1),
		setShift:  uint(bits.TrailingZeros(uint(sets))),
		class:     classifyConfig(cfg),
	}
	if cfg.LineSize == 64 {
		c.fullMask = ^uint64(0)
	} else {
		c.fullMask = (uint64(1) << cfg.LineSize) - 1
	}
	c.rng = 0x2545f4914f6cdd1d
	return c, nil
}

// MustNew is New but panics on configuration errors; for tests and
// tables of known-good configurations.
func MustNew(cfg Config) *Cache {
	c, err := New(cfg)
	if err != nil {
		// Documented must-style constructor: reaching this panic means a
		// hard-coded configuration table is wrong, not a runtime input.
		//simlint:allow nopanic must-style constructor for known-good config tables
		panic(err)
	}
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the counters accumulated so far.
func (c *Cache) Stats() Stats { return c.stats }

// spanResult aggregates per-line outcomes of one (possibly
// line-crossing) access event.
type spanResult struct {
	tagMiss     bool // some span's tag lookup missed
	fetched     bool // some span fetched a line
	partial     bool // some span tag-hit but had invalid requested bytes
	allHitDirty bool // every span tag-hit a line that was already dirty
}

// Access simulates one trace event.
//
// It runs once per event for every gang member of every sweep, so it
// and everything it calls must stay allocation-free:
// TestAccessZeroAlloc pins that at runtime and the simlint hotpath
// analyzer pins it at compile time.
//
//simlint:hotpath
func (c *Cache) Access(e trace.Event) {
	c.stats.Instructions += e.Instructions()
	switch e.Kind {
	case trace.Read:
		c.stats.Reads++
	case trace.Write:
		c.stats.Writes++
	}

	res := spanResult{allHitDirty: true}
	if off := e.Addr & c.lineMask; off+uint32(e.Size) <= c.lineSize {
		// Fast path: the access stays within one line — the dominant
		// case for the word-sized events the workloads emit.
		c.accessSpan(e.Kind, e.Addr, off, uint32(e.Size), &res)
	} else {
		addr := e.Addr
		remaining := uint32(e.Size)
		for remaining > 0 {
			off := addr & c.lineMask
			n := c.lineSize - off
			if n > remaining {
				n = remaining
			}
			c.accessSpan(e.Kind, addr, off, n, &res)
			addr += n
			remaining -= n
		}
	}

	switch e.Kind {
	case trace.Read:
		if res.fetched {
			c.stats.ReadMissEvents++
			if res.partial {
				c.stats.PartialValidReadMisses++
			}
		}
	case trace.Write:
		if res.tagMiss {
			c.stats.WriteMissEvents++
			if res.fetched {
				c.stats.FetchedWriteMisses++
			} else {
				c.stats.EliminatedWriteMisses++
			}
		} else {
			c.stats.WriteHitEvents++
			if res.allHitDirty {
				c.stats.WritesToDirtyLines++
			}
		}
	}
}

// AccessTrace runs every event of t through the cache.
func (c *Cache) AccessTrace(t *trace.Trace) {
	for _, e := range t.Events {
		c.Access(e)
	}
}

// accessSpan handles the portion of an access falling within one line:
// bytes [off, off+n) of the line containing addr.
func (c *Cache) accessSpan(kind trace.Kind, addr, off, n uint32, res *spanResult) {
	lineNum := addr >> c.lineShift
	set := int(lineNum & c.setMask)
	tag := lineNum >> c.setShift
	mask := c.byteMask(off, n)
	base := set * c.cfg.Assoc

	// Direct-mapped lookup inlines to a single compare; the way loop is
	// only needed for set-associative configurations.
	way := 0
	if c.cfg.Assoc == 1 {
		if l := &c.lines[base]; l.valid == 0 || l.tag != tag {
			way = -1
		}
	} else {
		way = c.findWay(base, tag)
	}
	c.tick++

	lineAddr := lineNum << c.lineShift

	if kind == trace.Read {
		if way >= 0 {
			l := &c.lines[base+way]
			if l.valid&mask == mask {
				l.lru = c.tick
				res.allHitDirty = res.allHitDirty && l.dirty != 0
				return
			}
			// Tag hit but requested bytes invalid (write-validate residue
			// or unfetched sectors): fetch fills the invalid bytes; dirty
			// bytes we wrote are newer than memory and are kept.
			res.partial = true
			res.fetched = true
			if c.cfg.SectorFetch {
				need := c.outwardMask(off, n) &^ l.valid
				c.fetchPartial(lineAddr, bits.OnesCount64(need))
				l.valid |= need
			} else {
				c.fetchLine(lineAddr)
				l.valid = c.fullMask
			}
			l.lru = c.tick
			return
		}
		res.tagMiss = true
		res.fetched = true
		res.allHitDirty = false
		w := c.victimWay(base)
		c.evict(set, &c.lines[base+w])
		nl := line{tag: tag, valid: c.fullMask, lru: c.tick, born: c.tick}
		if c.cfg.SectorFetch {
			nl.valid = c.outwardMask(off, n)
			c.fetchPartial(lineAddr, bits.OnesCount64(nl.valid))
		} else {
			c.fetchLine(lineAddr)
		}
		c.lines[base+w] = nl
		return
	}

	// Write.
	if way >= 0 {
		l := &c.lines[base+way]
		res.allHitDirty = res.allHitDirty && l.dirty != 0
		if l.valid&mask != mask {
			// Partially-valid line (write-validate residue): mark written
			// bytes valid at the configured sub-block granularity. Bytes
			// that cannot be covered by whole sub-blocks force a fill, as
			// real sub-block hardware would (paper §4's byte-write case).
			l.valid |= c.inwardMask(off, n)
			if l.valid&mask != mask {
				c.stats.SubblockWriteFills++
				if c.cfg.SectorFetch {
					need := c.outwardMask(off, n) &^ l.valid
					c.fetchPartial(lineAddr, bits.OnesCount64(need))
					l.valid |= need
				} else {
					c.fetchLine(lineAddr)
					l.valid = c.fullMask
				}
			}
		}
		if c.cfg.WriteHit == WriteBack {
			l.dirty |= mask
		} else {
			c.writeThrough(addr, n)
		}
		l.lru = c.tick
		return
	}

	res.tagMiss = true
	res.allHitDirty = false
	switch c.cfg.WriteMiss {
	case FetchOnWrite:
		res.fetched = true
		w := c.victimWay(base)
		c.evict(set, &c.lines[base+w])
		nl := line{tag: tag, valid: c.fullMask, lru: c.tick, born: c.tick}
		if c.cfg.SectorFetch {
			nl.valid = c.outwardMask(off, n)
			c.fetchPartial(lineAddr, bits.OnesCount64(nl.valid))
		} else {
			c.fetchLine(lineAddr)
		}
		if c.cfg.WriteHit == WriteBack {
			nl.dirty = mask
		} else {
			c.writeThrough(addr, n)
		}
		c.lines[base+w] = nl

	case WriteValidate:
		w := c.victimWay(base)
		c.evict(set, &c.lines[base+w])
		if c.inwardMask(off, n) != mask {
			// The write does not cover whole valid-bit sub-blocks, so the
			// line cannot be validated without its old contents: fall back
			// to fetch-on-write (paper §4: machines with word valid bits
			// "would probably provide fetch-on-write for byte writes").
			res.fetched = true
			c.fetchLine(lineAddr)
			nl := line{tag: tag, valid: c.fullMask, lru: c.tick, born: c.tick}
			if c.cfg.WriteHit == WriteBack {
				nl.dirty = mask
			} else {
				c.writeThrough(addr, n)
			}
			c.lines[base+w] = nl
			return
		}
		nl := line{tag: tag, valid: mask, lru: c.tick, born: c.tick}
		switch {
		case c.cfg.WriteHit != WriteBack:
			c.writeThrough(addr, n)
		case c.cfg.WVMissWriteThrough:
			// Multiprocessor-safe variant: the missing write goes through
			// so the rest of the system sees it; the allocated line stays
			// clean.
			c.writeThrough(addr, n)
		default:
			nl.dirty = mask
		}
		c.lines[base+w] = nl

	case WriteAround:
		// The cache is untouched; the write goes to the next level.
		c.writeThrough(addr, n)

	case WriteInvalidate:
		// The data array was written concurrently with the tag probe, so
		// the replacement-candidate line is corrupted and must be
		// invalidated. (Direct-mapped: the only line in the set — the
		// paper's case. Set-associative: the way the replacement policy
		// selected, since that is the way a concurrent-write
		// implementation would have clobbered.)
		w := c.victimWay(base)
		l := &c.lines[base+w]
		if l.valid != 0 {
			// A dirty line would lose data if simply invalidated; write
			// it back first. (Write-invalidate is only sensible on
			// write-through caches, where lines are never dirty, but the
			// simulator stays correct for any combination.)
			if l.dirty != 0 {
				c.writebackLine(c.lineAddrOf(set, l.tag), l.dirty)
			}
			c.stats.Invalidates++
			*l = line{}
		}
		c.writeThrough(addr, n)
	}
}

// findWay returns the way index within the set whose tag matches, or -1.
func (c *Cache) findWay(base int, tag uint32) int {
	for w := 0; w < c.cfg.Assoc; w++ {
		l := &c.lines[base+w]
		if l.valid != 0 && l.tag == tag {
			return w
		}
	}
	return -1
}

// victimWay returns the way to replace: an invalid way if present,
// otherwise the one chosen by the configured replacement policy.
func (c *Cache) victimWay(base int) int {
	for w := 0; w < c.cfg.Assoc; w++ {
		if c.lines[base+w].valid == 0 {
			return w
		}
	}
	switch c.cfg.Replacement {
	case FIFO:
		victim := 0
		var oldest uint64 = ^uint64(0)
		for w := 0; w < c.cfg.Assoc; w++ {
			if b := c.lines[base+w].born; b < oldest {
				oldest = b
				victim = w
			}
		}
		return victim
	case Random:
		c.rng ^= c.rng >> 12
		c.rng ^= c.rng << 25
		c.rng ^= c.rng >> 27
		return int((c.rng * 0x9e3779b97f4a7c15 >> 33) % uint64(c.cfg.Assoc))
	default: // LRU
		victim := 0
		var minLRU uint64 = ^uint64(0)
		for w := 0; w < c.cfg.Assoc; w++ {
			if l := &c.lines[base+w]; l.lru < minLRU {
				minLRU = l.lru
				victim = w
			}
		}
		return victim
	}
}

// evict retires a line ahead of a new allocation, accounting victim and
// write-back statistics. A fully-invalid line is free.
func (c *Cache) evict(set int, l *line) {
	if l.valid == 0 {
		return
	}
	c.stats.Victims++
	c.stats.VictimBytes += uint64(c.cfg.LineSize)
	db := 0
	if l.dirty != 0 {
		db = bits.OnesCount64(l.dirty)
		c.stats.DirtyVictims++
		c.stats.VictimDirtyBytes += uint64(db)
		c.writebackLine(c.lineAddrOf(set, l.tag), l.dirty)
	}
	if c.victimObs != nil {
		c.victimObs.ObserveVictim(c.lineAddrOf(set, l.tag), c.cfg.LineSize, db)
	}
	*l = line{}
}

// lineAddrOf reconstructs the byte address of a resident line from its
// set index and tag.
func (c *Cache) lineAddrOf(set int, tag uint32) uint32 {
	return (tag<<c.setShift | uint32(set)) << c.lineShift
}

// writebackLine accounts a dirty-line write-back and forwards it to the
// backside.
func (c *Cache) writebackLine(addr uint32, dirty uint64) {
	db := uint64(bits.OnesCount64(dirty))
	c.stats.Writebacks++
	c.stats.WritebackBytesFull += uint64(c.cfg.LineSize)
	c.stats.WritebackBytesDirty += db
	if c.backside != nil {
		c.backside.WritebackLine(addr, c.cfg.LineSize, int(db))
	}
}

// Flush empties the cache after execution, accounting flushed lines
// separately (flush-stop, paper §5: "it is assumed that the data cache
// is flushed of dirty cache lines after program execution").
func (c *Cache) Flush() {
	for i := range c.lines {
		l := &c.lines[i]
		if l.valid == 0 {
			continue
		}
		c.stats.FlushVictims++
		c.stats.FlushVictimBytes += uint64(c.cfg.LineSize)
		if l.dirty != 0 {
			db := bits.OnesCount64(l.dirty)
			c.stats.FlushDirtyVictims++
			c.stats.FlushVictimDirtyBytes += uint64(db)
			c.stats.FlushWritebacks++
			if c.backside != nil {
				// Flush traffic flows to the next level like any other
				// write-back (§5: "the flush traffic is added to the
				// write-back traffic"), but is accounted separately.
				c.backside.WritebackLine(c.lineAddrOf(i/c.cfg.Assoc, l.tag), c.cfg.LineSize, db)
			}
		}
		*l = line{}
	}
}

func (c *Cache) fetchLine(addr uint32) {
	c.stats.Fetches++
	c.stats.FetchBytes += uint64(c.cfg.LineSize)
	if c.backside != nil {
		c.backside.FetchLine(addr, c.cfg.LineSize)
	}
}

func (c *Cache) writeThrough(addr, n uint32) {
	c.stats.WriteThroughs++
	c.stats.WriteThroughBytes += uint64(n)
	if c.backside != nil {
		c.backside.WriteWord(addr, uint8(n))
	}
}

// outwardMask returns the byte mask of whole valid-granularity
// sub-blocks touched by [off, off+n) — the sectors a sector cache must
// fetch to cover the access.
func (c *Cache) outwardMask(off, n uint32) uint64 {
	g := uint32(c.cfg.Granularity())
	if g <= 1 {
		return c.byteMask(off, n)
	}
	start := off &^ (g - 1)
	end := (off + n + g - 1) &^ (g - 1)
	if end > uint32(c.cfg.LineSize) {
		end = uint32(c.cfg.LineSize)
	}
	return c.byteMask(start, end-start)
}

// fetchPartial accounts a partial (sector) fetch of nBytes.
func (c *Cache) fetchPartial(addr uint32, nBytes int) {
	c.stats.Fetches++
	c.stats.FetchBytes += uint64(nBytes)
	if c.backside != nil {
		c.backside.FetchLine(addr, nBytes)
	}
}

// inwardMask returns the byte mask of whole valid-granularity
// sub-blocks fully covered by [off, off+n). With granularity 1 it
// equals byteMask(off, n).
func (c *Cache) inwardMask(off, n uint32) uint64 {
	g := uint32(c.cfg.Granularity())
	if g <= 1 {
		return c.byteMask(off, n)
	}
	start := (off + g - 1) &^ (g - 1)
	end := (off + n) &^ (g - 1)
	if end <= start {
		return 0
	}
	return c.byteMask(start, end-start)
}

func (c *Cache) byteMask(off, n uint32) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return ((uint64(1) << n) - 1) << off
}

// LineState reports the resident state of the line containing addr, for
// tests, debugging tools and the coherence protocol's per-line state.
type LineState struct {
	Present bool
	Valid   uint64 // per-byte valid mask
	Dirty   uint64 // per-byte dirty mask
	// Frame is the index, in [0, Size/LineSize), of the frame holding
	// the line (set*Assoc + way); meaningful only when Present.
	Frame int
}

// Probe inspects the cache without disturbing its state.
func (c *Cache) Probe(addr uint32) LineState {
	lineNum := addr >> c.lineShift
	base := int(lineNum&c.setMask) * c.cfg.Assoc
	tag := lineNum >> c.setShift
	if w := c.findWay(base, tag); w >= 0 {
		l := c.lines[base+w]
		return LineState{Present: true, Valid: l.valid, Dirty: l.dirty, Frame: base + w}
	}
	return LineState{}
}

// ResidentLines returns how many lines currently hold any valid bytes.
func (c *Cache) ResidentLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].valid != 0 {
			n++
		}
	}
	return n
}

// DirtyLines returns how many resident lines have any dirty bytes.
func (c *Cache) DirtyLines() int {
	n := 0
	for i := range c.lines {
		if c.lines[i].dirty != 0 {
			n++
		}
	}
	return n
}

// String describes the cache.
func (c *Cache) String() string {
	return fmt.Sprintf("Cache(%s)", c.cfg)
}

// SeedDirty implements the warm-start methodology §5 attributes to
// Emer: "start the simulation with a statistically appropriate number
// of dirty blocks in the cache ... the initially dirty lines must be
// marked with non-matching but valid tags to generate write-back
// traffic." A fraction fracValid of all lines is made resident with a
// tag that cannot match any simulated address (the top tag bit is
// forced on, and workload addresses stay in the low 2GB), and a
// fraction fracDirty of those is marked fully dirty. Deterministic for
// a given seed. Must be called on a fresh cache.
func (c *Cache) SeedDirty(fracValid, fracDirty float64, seed uint64) error {
	if fracValid < 0 || fracValid > 1 || fracDirty < 0 || fracDirty > 1 {
		return fmt.Errorf("cache: seed fractions must be in [0,1]")
	}
	if c.ResidentLines() != 0 {
		return fmt.Errorf("cache: SeedDirty requires an empty cache")
	}
	rng := seed
	if rng == 0 {
		rng = 0x9e3779b97f4a7c15
	}
	next := func() uint64 {
		rng ^= rng >> 12
		rng ^= rng << 25
		rng ^= rng >> 27
		return rng * 0x2545f4914f6cdd1d
	}
	// A tag with the top address bit set cannot match workload addresses
	// below 2GB (the trace generators' whole range).
	unmatchable := (uint32(1) << 31) >> (c.lineShift + c.setShift)
	threshValid := uint64(fracValid * float64(1<<32))
	threshDirty := uint64(fracDirty * float64(1<<32))
	for i := range c.lines {
		if next()&0xffffffff >= threshValid {
			continue
		}
		c.tick++
		l := &c.lines[i]
		l.tag = unmatchable | uint32(next())&^(uint32(1)<<31)>>(c.lineShift+c.setShift)
		l.valid = c.fullMask
		l.lru = c.tick
		l.born = c.tick
		if next()&0xffffffff < threshDirty {
			l.dirty = c.fullMask
		}
	}
	return nil
}

// Downgrade writes the dirty bytes of every resident line overlapping
// [addr, addr+size) back through the backside and marks those lines
// clean, keeping them valid — the coherence M→S transition: another
// core needs the data, so the owner flushes it to the shared level but
// keeps a readable copy. Returns the resident lines touched (clean or
// dirty) and the dirty bytes flushed. Write-backs are accounted like
// any other (Writebacks, WritebackBytes*, backside WritebackLine).
func (c *Cache) Downgrade(addr uint32, size int) (lines, dirtyBytes int) {
	if size <= 0 {
		return 0, 0
	}
	first := addr >> c.lineShift
	last := (addr + uint32(size) - 1) >> c.lineShift
	for ln := first; ln <= last; ln++ {
		set := int(ln & c.setMask)
		tag := ln >> c.setShift
		base := set * c.cfg.Assoc
		if w := c.findWay(base, tag); w >= 0 {
			l := &c.lines[base+w]
			lines++
			if l.dirty != 0 {
				dirtyBytes += bits.OnesCount64(l.dirty)
				c.writebackLine(c.lineAddrOf(set, l.tag), l.dirty)
				l.dirty = 0
			}
		}
	}
	return lines, dirtyBytes
}

// SnoopUpdate applies a remote core's write of n bytes at addr to a
// resident copy of the containing line, as a write-update coherence
// protocol does: the written bytes become valid (at the configured
// valid granularity) and any dirty claim this cache held on them is
// released — the writer now owns the newest version of those bytes.
// The span must lie within one line. The replacement stamp is not
// touched: receiving an update is not a local reference. Reports
// whether a resident copy was updated.
func (c *Cache) SnoopUpdate(addr uint32, n uint8) bool {
	lineNum := addr >> c.lineShift
	base := int(lineNum&c.setMask) * c.cfg.Assoc
	tag := lineNum >> c.setShift
	w := c.findWay(base, tag)
	if w < 0 {
		return false
	}
	off := addr & c.lineMask
	l := &c.lines[base+w]
	l.valid |= c.inwardMask(off, uint32(n))
	l.dirty &^= c.byteMask(off, uint32(n))
	return true
}

// VisitResident calls fn for every line holding valid bytes, in
// set-then-way order, with the line's byte address and state — for
// invariant checkers (coherence single-writer) and debugging tools.
func (c *Cache) VisitResident(fn func(addr uint32, st LineState)) {
	for i := range c.lines {
		l := &c.lines[i]
		if l.valid == 0 {
			continue
		}
		fn(c.lineAddrOf(i/c.cfg.Assoc, l.tag), LineState{Present: true, Valid: l.valid, Dirty: l.dirty, Frame: i})
	}
}

// InvalidateRange invalidates every resident line overlapping
// [addr, addr+size) — the back-invalidation an inclusive second level
// issues when it evicts one of its (longer) lines. It returns the
// number of lines invalidated and the dirty bytes lost; the caller is
// responsible for writing that dirty data onward (in an inclusive
// hierarchy the L2 merges it into the outgoing victim).
func (c *Cache) InvalidateRange(addr uint32, size int) (lines, dirtyBytes int) {
	if size <= 0 {
		return 0, 0
	}
	first := addr >> c.lineShift
	last := (addr + uint32(size) - 1) >> c.lineShift
	for ln := first; ln <= last; ln++ {
		set := int(ln & c.setMask)
		tag := ln >> c.setShift
		base := set * c.cfg.Assoc
		if w := c.findWay(base, tag); w >= 0 {
			l := &c.lines[base+w]
			lines++
			dirtyBytes += bits.OnesCount64(l.dirty)
			c.stats.Invalidates++
			*l = line{}
		}
	}
	return lines, dirtyBytes
}
