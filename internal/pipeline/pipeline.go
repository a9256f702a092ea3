// Package pipeline models the paper's sixth dimension of write-hit
// comparison (§3, Fig 3): how stores integrate into the machine
// pipeline, and what that costs in cycles per instruction.
//
// Three cache organizations are modelled on the paper's five-stage
// pipeline (IF RF ALU MEM WB):
//
//   - DirectMappedWriteThrough: stores write the data array in MEM
//     concurrently with the tag probe — one cycle per store, no
//     interlocks (Fig 3's left column).
//   - SimpleWriteBack: the probe happens in MEM and the data write in
//     WB (probe-before-write). A load immediately following a store
//     finds the data array busy and stalls one cycle (also the case
//     for set-associative write-through).
//   - DelayedWriteBack: the last-write register of §3.1/Fig 4 — the
//     probe for store N proceeds in parallel with the data write of
//     store N-1, restoring one-cycle stores. A read miss between the
//     probe and the deferred write forces the pending write to drain
//     first (one cycle).
//
// The model composes the interlock cost with cache-miss stalls and
// write-buffer stalls into a total CPI estimate, giving a quantitative
// form of the paper's Table 2 row "cycles required per write: 1 vs
// 1 to 2 (incl. probe)".
package pipeline

import (
	"fmt"

	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
	"cachewrite/internal/writebuffer"
)

// Organization selects the store pipeline model.
type Organization uint8

const (
	// DirectMappedWriteThrough writes data concurrently with the probe.
	DirectMappedWriteThrough Organization = iota
	// SimpleWriteBack probes in MEM and writes in WB, interlocking
	// against an immediately-following load.
	SimpleWriteBack
	// DelayedWriteBack adds the last-write register of Fig 4.
	DelayedWriteBack
)

// String returns a readable organization name.
func (o Organization) String() string {
	switch o {
	case DirectMappedWriteThrough:
		return "direct-mapped write-through"
	case SimpleWriteBack:
		return "simple write-back"
	case DelayedWriteBack:
		return "write-back + delayed write register"
	default:
		return fmt.Sprintf("Organization(%d)", uint8(o))
	}
}

// Organizations lists the three models.
func Organizations() []Organization {
	return []Organization{DirectMappedWriteThrough, SimpleWriteBack, DelayedWriteBack}
}

// Config parameterizes the CPI model.
type Config struct {
	// Org is the store pipeline organization.
	Org Organization
	// Cache is the first-level cache; its hit/miss policies should match
	// the organization (write-through for DirectMappedWriteThrough).
	Cache cache.Config
	// MissPenalty is the stall, in cycles, per fetch-triggering miss.
	MissPenalty int
	// WriteBuffer, when non-nil, adds write-buffer-full stalls for
	// write-through organizations (the Fig 5 model).
	WriteBuffer *writebuffer.Config
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	switch c.Org {
	case DirectMappedWriteThrough, SimpleWriteBack, DelayedWriteBack:
	default:
		return fmt.Errorf("pipeline: unknown organization %d", c.Org)
	}
	if err := c.Cache.Validate(); err != nil {
		return fmt.Errorf("pipeline: %w", err)
	}
	if c.Org == DirectMappedWriteThrough && c.Cache.Assoc != 1 {
		return fmt.Errorf("pipeline: concurrent tag/data write requires a direct-mapped cache (assoc=%d)", c.Cache.Assoc)
	}
	if c.MissPenalty < 0 {
		return fmt.Errorf("pipeline: negative miss penalty %d", c.MissPenalty)
	}
	if c.WriteBuffer != nil {
		if err := c.WriteBuffer.Validate(); err != nil {
			return fmt.Errorf("pipeline: %w", err)
		}
	}
	return nil
}

// Stats is the CPI breakdown produced by Evaluate.
type Stats struct {
	Instructions uint64
	Stores       uint64
	Loads        uint64

	// InterlockStalls counts cycles lost to store/load structural
	// hazards on the data array (zero for one-cycle-store
	// organizations).
	InterlockStalls uint64
	// DrainStalls counts cycles spent draining the delayed-write
	// register ahead of a miss refill (DelayedWriteBack only).
	DrainStalls uint64
	// MissStalls is fetch-triggering misses times the miss penalty.
	MissStalls uint64
	// WriteBufferStalls is the buffer-full stall total (write-through
	// organizations with a WriteBuffer configured).
	WriteBufferStalls uint64

	// Cache carries the underlying cache statistics.
	Cache cache.Stats
}

// CPI returns total cycles per instruction: one base cycle per
// instruction plus every stall component.
func (s Stats) CPI() float64 {
	if s.Instructions == 0 {
		return 0
	}
	stalls := s.InterlockStalls + s.DrainStalls + s.MissStalls + s.WriteBufferStalls
	return 1 + float64(stalls)/float64(s.Instructions)
}

// StoreCost returns the marginal cycles per store attributable to the
// organization's store handling (interlock + drain stalls per store) —
// the measured version of Table 2's "cycles required per write" row,
// minus the base cycle.
func (s Stats) StoreCost() float64 {
	if s.Stores == 0 {
		return 0
	}
	return float64(s.InterlockStalls+s.DrainStalls) / float64(s.Stores)
}

// Evaluate runs the trace through the cache and the pipeline model.
func Evaluate(cfg Config, t *trace.Trace) (Stats, error) {
	if err := cfg.Validate(); err != nil {
		return Stats{}, err
	}
	c, err := cache.New(cfg.Cache)
	if err != nil {
		return Stats{}, err
	}
	var b *writebuffer.Buffer
	if cfg.WriteBuffer != nil && cfg.Cache.WriteHit == cache.WriteThrough {
		if b, err = writebuffer.New(*cfg.WriteBuffer); err != nil {
			return Stats{}, err
		}
	}

	var s Stats
	prevWasStore := false // previous *instruction* was a store
	pendingWrite := false // delayed-write register holds a write
	for _, e := range t.Events {
		missesBefore := c.Stats().Misses()
		c.Access(e)
		missed := c.Stats().Misses() != missesBefore
		if b != nil {
			b.Step(e)
		}

		// Gap instructions are non-memory: they break any store/load
		// adjacency and give the delayed write a free slot to retire.
		if e.Gap > 0 {
			prevWasStore = false
			pendingWrite = false
		}

		switch e.Kind {
		case trace.Read:
			s.Loads++
			if prevWasStore && cfg.Org == SimpleWriteBack {
				// The store's WB-stage data write collides with this
				// load's MEM-stage data read.
				s.InterlockStalls++
			}
			if missed && pendingWrite && cfg.Org == DelayedWriteBack {
				// The refill must wait for the deferred write to drain.
				s.DrainStalls++
				pendingWrite = false
			}
			prevWasStore = false
		case trace.Write:
			s.Stores++
			if cfg.Org == DelayedWriteBack {
				pendingWrite = true
			}
			prevWasStore = true
		}
		if missed {
			s.MissStalls += uint64(cfg.MissPenalty)
			// A miss refill empties the pipeline's write-side state.
			prevWasStore = false
			pendingWrite = false
		}
	}
	s.Cache = c.Stats()
	s.Instructions = s.Cache.Instructions
	if b != nil {
		s.WriteBufferStalls = b.Stats().StallCycles
	}
	return s, nil
}
