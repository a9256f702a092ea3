// Package timing is a trace-driven performance model for the memory
// system: it converts the functional simulator's hits, misses,
// write-throughs and write-backs into cycles, capturing the latency
// story that motivates the paper's write-miss taxonomy (§1: "write miss
// policies, although they do affect bandwidth, focus foremost on
// latency"; §4: "a cache using no-fetch-on-write can proceed
// immediately").
//
// The model:
//
//   - One cycle per instruction when nothing stalls.
//   - A read miss (or a fetch-triggering write miss under
//     fetch-on-write) stalls the CPU for FetchLatency cycles, plus any
//     wait for the dirty-victim buffer to drain when the victim is
//     dirty and the buffer is full.
//   - Eliminated write misses (write-validate / write-around /
//     write-invalidate) do not stall: the paper's central latency win.
//   - Each write-through word takes its own entry in a write buffer
//     retired one entry per WriteRetire cycles; the buffer does not
//     coalesce stores to the same word, and a full buffer stalls the
//     CPU (the Fig 5 mechanism, here integrated with the rest of the
//     machine).
//   - Dirty victims enter a victim buffer drained one entry per
//     WritebackCycles; a refill that produces a dirty victim while the
//     buffer is full waits for a slot (§3's "dirty victim buffer"
//     discussion).
package timing

import (
	"fmt"

	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
)

// Config parameterizes the performance model.
type Config struct {
	// L1 is the first-level cache configuration.
	L1 cache.Config
	// FetchLatency is the CPU stall per line fetch from the next level.
	FetchLatency int
	// WriteBufferEntries is the write buffer depth for write-through
	// traffic, one entry per write-through word with no coalescing
	// (ignored if the configuration produces no write-through words).
	// Zero disables buffering: every write-through word stalls
	// WriteRetire cycles.
	WriteBufferEntries int
	// WriteRetire is the cycles the next level needs to retire one
	// write-buffer entry.
	WriteRetire int
	// VictimBufferEntries is the dirty-victim buffer depth (the paper
	// argues one entry usually suffices; here it is measurable). Zero
	// means no buffer: every write-back stalls WritebackCycles.
	VictimBufferEntries int
	// WritebackCycles is the cycles the next level needs to absorb one
	// dirty victim line.
	WritebackCycles int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if err := c.L1.Validate(); err != nil {
		return fmt.Errorf("timing: %w", err)
	}
	if c.FetchLatency < 0 || c.WriteRetire < 0 || c.WritebackCycles < 0 {
		return fmt.Errorf("timing: latencies must be non-negative")
	}
	if c.WriteBufferEntries < 0 || c.VictimBufferEntries < 0 {
		return fmt.Errorf("timing: buffer depths must be non-negative")
	}
	return nil
}

// Stats is the cycle breakdown.
type Stats struct {
	Instructions uint64
	Cycles       uint64

	// ReadMissStalls covers read misses (including write-validate's
	// induced partial-validity fills).
	ReadMissStalls uint64
	// WriteMissStalls covers fetch-on-write fetches — the stalls the
	// no-fetch policies eliminate.
	WriteMissStalls uint64
	// WriteBufferStalls covers CPU waits on a full write buffer.
	WriteBufferStalls uint64
	// VictimStalls covers refills waiting on a full dirty-victim buffer.
	VictimStalls uint64

	// Cache carries the functional statistics.
	Cache cache.Stats
}

// CPI returns cycles per instruction.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	return float64(s.Cycles) / float64(s.Instructions)
}

// MemStallCPI returns the memory-system stall component of CPI.
func (s Stats) MemStallCPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	stalls := s.ReadMissStalls + s.WriteMissStalls + s.WriteBufferStalls + s.VictimStalls
	return float64(stalls) / float64(s.Instructions)
}

// drainQueue models a FIFO drained at a fixed rate: entries become free
// rate cycles apart once the drain engine reaches them.
type drainQueue struct {
	freeAt []uint64 // completion time per occupied slot, FIFO order
	rate   uint64
}

// drain removes entries completed by time t.
func (q *drainQueue) drain(t uint64) {
	for len(q.freeAt) > 0 && q.freeAt[0] <= t {
		q.freeAt = q.freeAt[1:]
	}
}

// push inserts an entry at time t given capacity cap, returning the
// stall incurred (time the CPU waits for a slot) and the new current
// time.
func (q *drainQueue) push(t uint64, capacity int) (stall uint64, now uint64) {
	q.drain(t)
	if capacity <= 0 {
		// Unbuffered: the CPU absorbs the full drain latency.
		return q.rate, t + q.rate
	}
	if len(q.freeAt) >= capacity {
		wait := q.freeAt[0] - t
		t += wait
		stall = wait
		q.drain(t)
	}
	// The new entry completes rate cycles after the later of now and the
	// previous tail.
	start := t
	if n := len(q.freeAt); n > 0 && q.freeAt[n-1] > start {
		start = q.freeAt[n-1]
	}
	q.freeAt = append(q.freeAt, start+q.rate)
	return stall, t
}

// model is the timing state. Attached as the L1's back side, it turns
// each fetch, dirty victim and write-through word into cycles as the
// cache emits it.
type model struct {
	cfg  Config
	s    Stats
	now  uint64
	kind trace.Kind // kind of the event being replayed
	wb   drainQueue
	vb   drainQueue
}

// FetchLine stalls the CPU for the fetch, charged to the current
// event's kind.
func (m *model) FetchLine(uint32, int) {
	stall := uint64(m.cfg.FetchLatency)
	if m.kind == trace.Write {
		m.s.WriteMissStalls += stall
	} else {
		m.s.ReadMissStalls += stall
	}
	m.now += stall
}

// WritebackLine queues a dirty victim in the victim buffer; the CPU
// only waits when the buffer is full (it must, or the victim's data
// would be lost to the refill).
func (m *model) WritebackLine(uint32, int, int) {
	stall, now := m.vb.push(m.now, m.cfg.VictimBufferEntries)
	m.s.VictimStalls += stall
	m.now = now
}

// WriteWord queues a write-through word in the write buffer.
func (m *model) WriteWord(uint32, uint8) {
	stall, now := m.wb.push(m.now, m.cfg.WriteBufferEntries)
	m.s.WriteBufferStalls += stall
	m.now = now
}

// Evaluate runs the trace through the functional cache and the timing
// model.
func Evaluate(cfg Config, t *trace.Trace) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	c, err := cache.New(cfg.L1)
	if err != nil {
		return Stats{}, err
	}
	m := &model{cfg: cfg,
		wb: drainQueue{rate: uint64(cfg.WriteRetire)},
		vb: drainQueue{rate: uint64(cfg.WritebackCycles)}}
	c.SetBackside(m)
	for _, e := range t.Events {
		m.now += e.Instructions()
		m.kind = e.Kind
		c.Access(e)
	}
	s := m.s
	s.Cache = c.Stats()
	s.Instructions = s.Cache.Instructions
	s.Cycles = m.now
	return s, nil
}
