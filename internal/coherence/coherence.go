// Package coherence simulates N cores with private first-level data
// caches over a shared second level, kept consistent by a snooping
// protocol. It is the multi-core extension of the paper's single-core
// write-policy taxonomy: every combination of coherence scheme ×
// write-hit × write-miss policy runs, so invalidations and update
// broadcasts interact directly with write-through/write-back and
// fetch-on-write/write-validate/write-around/write-invalidate.
//
// Three schemes are modelled:
//
//   - Invalidate: MSI-style write-invalidate snooping. A write
//     removes every remote copy (dirty remote data is flushed to the
//     shared level first), so subsequent remote accesses miss —
//     counted separately as sharing misses.
//   - Update: write-update (Dragon/Firefly-style). A write refreshes
//     remote copies in place, paying broadcast bytes on the bus
//     instead of future sharing misses.
//   - Hybrid: competitive update/invalidate. A copy absorbs updates
//     until it has received HybridK of them with no local reference
//     in between, then self-invalidates — bounding update traffic for
//     lines a core has stopped reading.
//
// State is byte-granular, reusing internal/cache's per-byte valid and
// dirty masks: a line with dirty bytes is the owner (M), a valid clean
// copy is shared (S), absent is invalid (I). The testable invariant is
// byte-level single-writer/multiple-reader: no byte is dirty in more
// than one private cache (CheckSingleWriter).
//
// The simulator is deterministic: per-core state lives in slices,
// broadcasts visit cores in index order, and the multi-core schedule
// merges per-core traces by instruction time with ties resolved
// lowest-core-first.
package coherence

import (
	"fmt"
	"math/bits"

	"cachewrite/internal/cache"
	"cachewrite/internal/hierarchy"
	"cachewrite/internal/trace"
)

// Scheme selects the snooping coherence protocol.
type Scheme uint8

const (
	// Invalidate is MSI-style write-invalidate snooping.
	Invalidate Scheme = iota
	// Update is write-update (Dragon/Firefly-style) snooping.
	Update
	// Hybrid is competitive update/invalidate: a copy self-invalidates
	// after HybridK consecutive remote updates without a local touch.
	Hybrid
)

// Schemes returns all coherence schemes in presentation order.
func Schemes() []Scheme { return []Scheme{Invalidate, Update, Hybrid} }

// String names the scheme.
func (s Scheme) String() string {
	switch s {
	case Invalidate:
		return "invalidate"
	case Update:
		return "update"
	case Hybrid:
		return "hybrid"
	}
	return fmt.Sprintf("Scheme(%d)", uint8(s))
}

// MarshalText implements encoding.TextMarshaler for JSON output.
func (s Scheme) MarshalText() ([]byte, error) { return []byte(s.String()), nil }

// HybridK is the Hybrid scheme's competitive threshold: a copy
// tolerates this many remote updates with no local reference before
// self-invalidating.
const HybridK = 4

// MaxCores bounds the system size.
const MaxCores = 64

// Config describes the multi-core system.
type Config struct {
	// Cores is the number of private-L1 cores (1..MaxCores).
	Cores int
	// L1 configures every core's private first-level cache.
	L1 cache.Config
	// L2, if non-nil, is the shared second level behind the snooping
	// bus; nil means the bus talks straight to memory.
	L2 *cache.Config
	// Scheme selects the coherence protocol.
	Scheme Scheme
}

// Validate reports whether the configuration is realizable.
func (c Config) Validate() error {
	if c.Cores < 1 || c.Cores > MaxCores {
		return fmt.Errorf("coherence: %d cores outside [1,%d]", c.Cores, MaxCores)
	}
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("coherence: L1: %w", err)
	}
	if c.L2 != nil {
		if err := c.L2.Validate(); err != nil {
			return fmt.Errorf("coherence: L2: %w", err)
		}
		if c.L2.LineSize < c.L1.LineSize {
			return fmt.Errorf("coherence: L2 line size %dB smaller than L1's %dB", c.L2.LineSize, c.L1.LineSize)
		}
		if c.L2.Size < c.L1.Size {
			return fmt.Errorf("coherence: L2 size %dB smaller than one L1's %dB", c.L2.Size, c.L1.Size)
		}
	}
	switch c.Scheme {
	case Invalidate, Update, Hybrid:
	default:
		return fmt.Errorf("coherence: unknown scheme %d", uint8(c.Scheme))
	}
	return nil
}

// Stats aggregates system-wide traffic and coherence counters.
type Stats struct {
	// Stats is the traffic of the shared hierarchy.Backside every L1
	// feeds: L1ToL2* counts everything leaving the L1s toward the
	// shared level (line fetches, dirty write-backs including
	// coherence-forced flushes, and write-through words) and L2ToMem*
	// the traffic at the back of the shared L2. A 1-core system is
	// therefore stat-identical to the single-core hierarchy. The
	// write-cache and inclusion counters stay zero: a coherent system
	// has neither.
	hierarchy.Stats

	// InvalidationsSent counts write broadcasts (Invalidate scheme)
	// that removed at least one remote copy; InvalidationsReceived
	// counts the copies removed.
	InvalidationsSent     uint64
	InvalidationsReceived uint64
	// UpdatesSent counts write broadcasts (Update/Hybrid schemes) that
	// refreshed at least one remote copy; UpdatesReceived counts the
	// copies refreshed; UpdateTrafficBytes is the broadcast payload
	// (written bytes × broadcasts that found a copy).
	UpdatesSent        uint64
	UpdatesReceived    uint64
	UpdateTrafficBytes uint64
	// Interventions counts remote caches that supplied dirty data for
	// another core's access (the M→S downgrade flush);
	// InterventionDirtyBytes is the dirty bytes they flushed.
	Interventions          uint64
	InterventionDirtyBytes uint64
	// HybridInvalidations counts copies the Hybrid scheme
	// self-invalidated after HybridK unanswered remote updates.
	HybridInvalidations uint64
	// SharingMisses counts accesses that tag-missed on a line a
	// coherence action had previously removed from that core — an
	// upper bound on the coherence-miss class, counted on top of the
	// paper's miss taxonomy (the underlying events still appear in the
	// per-core cache.Stats miss counters).
	SharingMisses uint64
}

// BusBytes returns the L1-side bus traffic including coherence
// payloads: everything the L1 complex moved plus update broadcasts.
func (s Stats) BusBytes() uint64 { return s.L1ToL2Bytes + s.UpdateTrafficBytes }

// core is one core's private state.
type core struct {
	l1 *cache.Cache
	// invalidated records line numbers removed from this core's L1 by
	// a coherence action; a later tag miss on such a line is a sharing
	// miss (entry consumed on first re-access). It outlives the frame:
	// the mark stays after another line reuses it.
	invalidated lineSet
	// hybrid counts consecutive remote updates per L1 frame (Hybrid
	// scheme with remote cores only). After every local access each touched line's frame
	// restarts at zero, which covers both a local reference and a
	// fill. A non-resident line's count is never read, because
	// refetching the line takes a local access.
	hybrid []uint8
}

// System is the N-core simulator. Not safe for concurrent use.
type System struct {
	cfg       Config
	cores     []core
	back      *hierarchy.Backside
	stats     Stats
	lineSize  uint32
	lineShift uint
}

// New builds a system for the configuration.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:      cfg,
		cores:    make([]core, cfg.Cores),
		lineSize: uint32(cfg.L1.LineSize),
	}
	for s.lineSize>>s.lineShift > 1 {
		s.lineShift++
	}
	var err error
	if s.back, err = hierarchy.NewBackside(cfg.L2); err != nil {
		return nil, err
	}
	for i := range s.cores {
		l1, err := cache.New(cfg.L1)
		if err != nil {
			return nil, err
		}
		s.cores[i].l1 = l1
		if cfg.Scheme == Hybrid && cfg.Cores > 1 {
			s.cores[i].hybrid = make([]uint8, cfg.L1.Size/cfg.L1.LineSize)
		}
		l1.SetBackside(s.back)
	}
	return s, nil
}

// Config returns the system configuration.
func (s *System) Config() Config { return s.cfg }

// Cores returns the number of cores.
func (s *System) Cores() int { return len(s.cores) }

// L1 returns core i's private cache (for its paper-class statistics).
func (s *System) L1(i int) *cache.Cache { return s.cores[i].l1 }

// L2 returns the shared second-level cache, or nil.
func (s *System) L2() *cache.Cache { return s.back.L2() }

// Stats returns the system-wide counters accumulated so far.
func (s *System) Stats() Stats {
	st := s.stats
	st.Stats = s.back.Stats()
	return st
}

// AggregateL1 sums every core's L1 counters — the system-wide view of
// the paper's per-cache statistics.
func (s *System) AggregateL1() cache.Stats {
	var agg cache.Stats
	for i := range s.cores {
		agg.Add(s.cores[i].l1.Stats())
	}
	return agg
}

// Access simulates one event issued by the given core: the snooping
// protocol acts on every remote cache first (freshness downgrades,
// invalidations or update broadcasts), then the event runs through the
// core's private L1 as usual.
func (s *System) Access(c int, e trace.Event) {
	if len(s.cores) > 1 {
		addr := e.Addr
		remaining := uint32(e.Size)
		for remaining > 0 {
			off := addr & (s.lineSize - 1)
			n := s.lineSize - off
			if n > remaining {
				n = remaining
			}
			s.snoopSpan(c, e.Kind, addr, n)
			addr += n
			remaining -= n
		}
	}
	me := &s.cores[c]
	me.l1.Access(e)
	if me.hybrid != nil {
		// A local reference resets the competitive update counter (the
		// core still cares about the line), and so does a fill.
		last := (e.Addr + uint32(e.Size) - 1) >> s.lineShift
		for ln := e.Addr >> s.lineShift; ln <= last; ln++ {
			if st := me.l1.Probe(ln << s.lineShift); st.Present {
				me.hybrid[st.Frame] = 0
			}
		}
	}
}

// snoopSpan handles the protocol for the portion of an access within
// one L1 line: bytes [addr, addr+n). It decides once what the span
// asks of every remote copy, then applies that in one walk over the
// remote cores in index order.
func (s *System) snoopSpan(c int, kind trace.Kind, addr, n uint32) {
	lineNum := addr >> s.lineShift
	lineAddr := lineNum << s.lineShift
	me := &s.cores[c]

	local := me.l1.Probe(addr)
	if !local.Present && me.invalidated.take(lineNum) {
		s.stats.SharingMisses++
	}

	mask := spanMask(addr&(s.lineSize-1), n)
	covered := local.Present && local.Valid&mask == mask
	read := kind == trace.Read
	if read && covered {
		return
	}

	// A fetch must observe remote dirty data, so a read miss and a
	// fetching write flush every remote owner to the shared level
	// first; an invalidating write flushes before it drops the copies.
	// Updating a copy in the same walk relies on SnoopUpdate never
	// reaching the back side: the shared level sees only the flushes,
	// in core order.
	flush := read || s.cfg.Scheme == Invalidate || s.writeWillFetch(local, covered, addr, n)
	found := false
	for j := range s.cores {
		if j == c {
			continue
		}
		r := &s.cores[j]
		if flush {
			s.flush(r, lineAddr)
		}
		switch {
		case read:
		case s.cfg.Scheme == Invalidate:
			if lines, _ := r.l1.InvalidateRange(lineAddr, int(s.lineSize)); lines > 0 {
				found = true
				s.stats.InvalidationsReceived++
				r.invalidated.add(lineNum)
			}
		default:
			found = s.update(r, addr, n, lineNum, lineAddr) || found
		}
	}
	switch {
	case !found:
	case s.cfg.Scheme == Invalidate:
		s.stats.InvalidationsSent++
	default:
		s.stats.UpdatesSent++
		s.stats.UpdateTrafficBytes += uint64(n)
	}
}

// writeWillFetch reports whether the local L1 will fetch the line to
// service this write, in which case remote dirty data must be flushed
// to the shared level first. Conservative for partially valid lines:
// a downgrade of a clean remote set is a no-op, so erring toward
// freshness never loses data.
func (s *System) writeWillFetch(local cache.LineState, covered bool, addr, n uint32) bool {
	if local.Present {
		return !covered
	}
	switch s.cfg.L1.WriteMiss {
	case cache.FetchOnWrite:
		return true
	case cache.WriteValidate:
		// Fetches only when the write cannot validate whole
		// sub-blocks (the cache's byte-write fallback).
		g := uint32(s.cfg.L1.Granularity())
		if g <= 1 {
			return false
		}
		off := addr & (s.lineSize - 1)
		return off%g != 0 || n%g != 0
	}
	return false // write-around / write-invalidate never allocate
}

// flush writes remote core r's dirty bytes of the line at lineAddr to
// the shared level (M→S): the copy stays readable, but the next fill
// from the shared level observes the newest bytes.
func (s *System) flush(r *core, lineAddr uint32) {
	if _, dirty := r.l1.Downgrade(lineAddr, int(s.lineSize)); dirty > 0 {
		s.stats.Interventions++
		s.stats.InterventionDirtyBytes += uint64(dirty)
	}
}

// update applies a write-update broadcast of bytes [addr, addr+n) to
// remote core r's copy and reports whether r held one. Under Hybrid, a
// copy that has absorbed HybridK updates with no local reference
// self-invalidates instead of taking another.
func (s *System) update(r *core, addr, n, lineNum, lineAddr uint32) bool {
	st := r.l1.Probe(lineAddr)
	if !st.Present {
		return false
	}
	if r.hybrid != nil {
		cnt := r.hybrid[st.Frame] + 1
		if cnt >= HybridK {
			// Competitive threshold reached: stop paying for updates
			// this core is not reading; flush any dirty claim and drop
			// the copy. The broadcast still happened.
			s.flush(r, lineAddr)
			r.l1.InvalidateRange(lineAddr, int(s.lineSize))
			s.stats.HybridInvalidations++
			r.invalidated.add(lineNum)
			return true
		}
		r.hybrid[st.Frame] = cnt
	}
	r.l1.SnoopUpdate(addr, uint8(n))
	s.stats.UpdatesReceived++
	return true
}

// Run replays a multi-core workload to completion in trace.Merge
// order: per-core streams by global instruction time (each core's
// stagger offset applied), ties resolving lowest-core-first.
func (s *System) Run(w *Workload) error {
	if w == nil || len(w.PerCore) != len(s.cores) {
		got := 0
		if w != nil {
			got = len(w.PerCore)
		}
		return fmt.Errorf("coherence: workload has %d per-core traces, system has %d cores", got, len(s.cores))
	}
	trace.Merge(w.Offsets, w.PerCore, func(c int, e trace.Event, _ uint64) { s.Access(c, e) })
	return nil
}

// Flush drains every level (flush-stop accounting): each L1 in core
// order, then the shared L2.
func (s *System) Flush() {
	for i := range s.cores {
		s.cores[i].l1.Flush()
	}
	if l2 := s.back.L2(); l2 != nil {
		l2.Flush()
	}
}

// CheckSingleWriter verifies the byte-level single-writer invariant:
// no byte of any line is dirty in more than one private cache. It
// returns nil when the invariant holds.
func (s *System) CheckSingleWriter() error {
	type claim struct {
		core  int
		dirty uint64
	}
	owners := make(map[uint32]claim)
	var conflict error
	for i := range s.cores {
		if conflict != nil {
			break
		}
		c := i
		s.cores[i].l1.VisitResident(func(addr uint32, st cache.LineState) {
			if st.Dirty == 0 || conflict != nil {
				return
			}
			if prev, ok := owners[addr]; ok && prev.dirty&st.Dirty != 0 {
				conflict = fmt.Errorf("coherence: line %#x bytes %#x dirty in cores %d and %d",
					addr, prev.dirty&st.Dirty, prev.core, c)
				return
			} else if ok {
				owners[addr] = claim{core: c, dirty: prev.dirty | st.Dirty}
			} else {
				owners[addr] = claim{core: c, dirty: st.Dirty}
			}
		})
	}
	return conflict
}

// spanMask is the byte mask of [off, off+n) within a line.
func spanMask(off, n uint32) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return ((uint64(1) << n) - 1) << off
}

// lineSet is a set of line numbers: open addressing with linear
// probing and backward-shift deletion, so removal leaves no
// tombstones. A slot holds line+1 (line numbers stay below 2^30, as
// lines are at least 4 bytes), so zero marks an empty slot.
type lineSet struct {
	slots []uint32 // power-of-two length
	shift uint     // 32 - log2(len(slots)): keeps the top hash bits
	n     int
}

// home is the slot a key hashes to (Fibonacci hashing).
func (t *lineSet) home(key uint32) int { return int(key * 0x9e3779b1 >> t.shift) }

// add inserts line; adding a member again is a no-op.
func (t *lineSet) add(line uint32) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	key, mask := line+1, len(t.slots)-1
	i := t.home(key)
	for ; t.slots[i] != 0; i = (i + 1) & mask {
		if t.slots[i] == key {
			return
		}
	}
	t.slots[i] = key
	t.n++
}

// take removes line and reports whether it was a member.
func (t *lineSet) take(line uint32) bool {
	if t.n == 0 {
		return false
	}
	key, mask := line+1, len(t.slots)-1
	i := t.home(key)
	for t.slots[i] != key {
		if t.slots[i] == 0 {
			return false
		}
		i = (i + 1) & mask
	}
	// Close the hole: a later key in the probe run moves into it
	// unless its home lies cyclically in (hole, its slot].
	for j := (i + 1) & mask; t.slots[j] != 0; j = (j + 1) & mask {
		if (j-t.home(t.slots[j]))&mask >= (j-i)&mask {
			t.slots[i] = t.slots[j]
			i = j
		}
	}
	t.slots[i] = 0
	t.n--
	return true
}

// grow doubles the table (64 slots at first) and reinserts every
// member, keeping the load at or below one half.
func (t *lineSet) grow() {
	old := t.slots
	size := max(2*len(old), 64)
	t.slots = make([]uint32, size)
	t.shift = uint(32 - bits.TrailingZeros(uint(size)))
	t.n = 0
	for _, key := range old {
		if key != 0 {
			t.add(key - 1)
		}
	}
}
