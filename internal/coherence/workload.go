// Multi-core workload construction: each core replays the base
// benchmark in a private address window (trace.Rebase), with a
// configurable fraction of 64-byte address granules overridden back to
// their base addresses so every core touches them at the same place —
// true sharing with deterministic, address-hashed selection. The
// per-core streams carry stagger offsets and are merged by instruction
// time with trace.Merge, the one multi-stream schedule: System.Run
// replays it coherently, and a single shared cache can replay the same
// order as a no-coherence baseline.
package coherence

import (
	"fmt"

	"cachewrite/internal/trace"
)

// SharedGranule is the sharing decision granularity in bytes: whether
// an address is shared or private is decided per 64-byte granule, so
// the choice is stable across line sizes up to the cache maximum.
const SharedGranule = 64

// Stride is the private-window spacing: core i's private
// addresses are base+i*Stride. The paper workloads place their
// footprints near 0x10000000 (heap) and 0x7fffffff (stack); 128MB
// steps keep up to MaxCores per-core images of both regions disjoint
// within the 32-bit space, and BuildWorkload verifies disjointness
// exactly rather than trusting the layout.
const Stride = 1 << 27

// WorkloadConfig describes how to turn one benchmark trace into an
// N-core workload.
type WorkloadConfig struct {
	// Cores is the sharing degree (1..MaxCores).
	Cores int
	// SharedFraction in [0,1] is the fraction of 64-byte address
	// granules all cores share (selected by a deterministic address
	// hash); the rest of each core's references land in its private
	// window.
	SharedFraction float64
	// Stagger offsets core i's start by i*Stagger instructions,
	// breaking lockstep between the replicated streams.
	Stagger uint64
	// MaxEventsPerCore truncates the base trace to this many events
	// per core (0 = full trace) — the sweep experiments use a prefix
	// sample to bound simulation cost.
	MaxEventsPerCore int
}

// Workload is an N-core reference schedule: one trace per core plus
// per-core start offsets (instruction stagger).
type Workload struct {
	Name    string
	PerCore []*trace.Trace
	Offsets []uint64
}

// BuildWorkload constructs the N-core workload. It fails if any
// rebased access leaves the 32-bit address space or if two cores'
// private footprints (or a private and the shared footprint) collide
// at SharedGranule granularity.
func BuildWorkload(base *trace.Trace, cfg WorkloadConfig) (*Workload, error) {
	if cfg.Cores < 1 || cfg.Cores > MaxCores {
		return nil, fmt.Errorf("coherence: %d cores outside [1,%d]", cfg.Cores, MaxCores)
	}
	if cfg.SharedFraction < 0 || cfg.SharedFraction > 1 {
		return nil, fmt.Errorf("coherence: shared fraction %v outside [0,1]", cfg.SharedFraction)
	}
	t := base
	if cfg.MaxEventsPerCore > 0 && base.Len() > cfg.MaxEventsPerCore {
		t = &trace.Trace{Name: base.Name, Events: base.Events[:cfg.MaxEventsPerCore]}
	}
	threshold := uint64(cfg.SharedFraction * float64(1<<32))

	w := &Workload{
		Name:    fmt.Sprintf("%s/x%d", base.Name, cfg.Cores),
		PerCore: make([]*trace.Trace, cfg.Cores),
		Offsets: make([]uint64, cfg.Cores),
	}
	// owner records, per shared granule, whether it belongs to the
	// shared footprint (-1) or one core's private image; a conflicting
	// claim means two windows collided and the workload would alias.
	owner := make(map[uint32]int)
	claim := func(g uint32, who int) error {
		if prev, ok := owner[g]; ok {
			if prev != who {
				return fmt.Errorf("coherence: address windows collide at granule %#x (stride %d too small for this footprint)",
					uint64(g)*SharedGranule, Stride)
			}
			return nil
		}
		owner[g] = who
		return nil
	}
	for c := 0; c < cfg.Cores; c++ {
		img, err := trace.Rebase(t, int64(Stride)*int64(c))
		if err != nil {
			return nil, fmt.Errorf("coherence: core %d window: %w", c, err)
		}
		img.Name = fmt.Sprintf("%s/core%d", base.Name, c)
		for i, e := range t.Events {
			if sharedGranule(e.Addr/SharedGranule, threshold) {
				// Shared granule: every core references the base
				// address, so the cores genuinely collide here.
				img.Events[i].Addr = e.Addr
				if err := claim(e.Addr/SharedGranule, -1); err != nil {
					return nil, err
				}
			} else if err := claim(img.Events[i].Addr/SharedGranule, c); err != nil {
				return nil, err
			}
		}
		w.PerCore[c] = img
		w.Offsets[c] = uint64(c) * cfg.Stagger
	}
	return w, nil
}

// sharedGranule decides, by deterministic hash, whether a granule is
// part of the shared region. The hash is a 32-bit splitmix-style
// mixer, so the shared set is a uniform pseudo-random sample of the
// footprint rather than one contiguous region.
func sharedGranule(g uint32, threshold uint64) bool {
	x := g + 0x9e3779b9
	x ^= x >> 16
	x *= 0x21f0aaad
	x ^= x >> 15
	x *= 0x735a2d97
	x ^= x >> 15
	return uint64(x) < threshold
}
