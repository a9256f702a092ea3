// Package trace defines the memory-reference stream representation used
// throughout the simulator.
//
// A trace is a sequence of Events. Each event is a data load or a data
// store of Size bytes at Addr, annotated with Gap: the number of
// instructions executed since the previous event that did not reference
// data memory. This keeps traces compact (no explicit instruction-fetch
// events) while preserving both the instruction count — needed for
// transactions-per-instruction metrics (paper Figs 18–19) — and the
// cycle position of every write — needed for the write-buffer timing
// model (paper Fig 5).
//
// The convention mirrors the paper's experimental environment (§2): the
// MultiTitan has no byte stores, so all events are aligned 4B or 8B
// word accesses, and instruction fetches are not part of the data
// stream (separate I and D caches are assumed).
package trace

import "fmt"

// Kind discriminates loads from stores.
type Kind uint8

const (
	// Read is a data load.
	Read Kind = iota
	// Write is a data store.
	Write
)

// String returns "read" or "write".
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Event is a single data-memory reference.
//
// The struct is packed to 8 bytes so multi-million-event traces stay
// cheap to hold in memory.
type Event struct {
	// Addr is the virtual byte address of the access.
	Addr uint32
	// Gap is the number of non-memory instructions executed since the
	// previous event. The instruction containing the reference itself is
	// NOT included in Gap; an event therefore accounts for Gap+1
	// instructions.
	Gap uint16
	// Size is the access width in bytes (4 or 8 in the workloads shipped
	// with this repository; the simulator accepts 1..255).
	Size uint8
	// Kind is Read or Write.
	Kind Kind
}

// Instructions returns the number of instructions this event accounts
// for: its gap plus the referencing instruction itself. It is called
// from cache.Access, so it is part of the zero-allocation hot path.
//
//simlint:hotpath
func (e Event) Instructions() uint64 { return uint64(e.Gap) + 1 }

// String renders the event in the text trace format: "r addr size gap".
func (e Event) String() string {
	c := "r"
	if e.Kind == Write {
		c = "w"
	}
	return fmt.Sprintf("%s 0x%x %d %d", c, e.Addr, e.Size, e.Gap)
}

// Trace is an in-memory reference stream with its identifying metadata.
type Trace struct {
	// Name identifies the workload that produced the trace (e.g.
	// "linpack").
	Name string
	// Events is the reference stream in program order.
	Events []Event
}

// Stats summarises a trace, mirroring the columns of the paper's
// Table 1.
type Stats struct {
	Instructions uint64 // dynamic instruction count (gaps + references)
	Reads        uint64 // data loads
	Writes       uint64 // data stores
	ReadBytes    uint64 // bytes loaded
	WriteBytes   uint64 // bytes stored
}

// Refs returns the total number of data references.
func (s Stats) Refs() uint64 { return s.Reads + s.Writes }

// LoadStoreRatio returns reads per write, or 0 when the trace has no
// writes.
func (s Stats) LoadStoreRatio() float64 {
	if s.Writes == 0 {
		return 0
	}
	return float64(s.Reads) / float64(s.Writes)
}

// Stats computes summary statistics for the trace.
func (t *Trace) Stats() Stats {
	var s Stats
	for _, e := range t.Events {
		s.Instructions += e.Instructions()
		switch e.Kind {
		case Read:
			s.Reads++
			s.ReadBytes += uint64(e.Size)
		case Write:
			s.Writes++
			s.WriteBytes += uint64(e.Size)
		}
	}
	return s
}

// Validate checks structural invariants: non-zero sizes, accesses
// aligned to their size, and no address wraparound. It returns an error
// describing the first violation.
func (t *Trace) Validate() error {
	for i, e := range t.Events {
		if e.Size == 0 {
			return fmt.Errorf("trace %q event %d: zero size", t.Name, i)
		}
		if e.Kind != Read && e.Kind != Write {
			return fmt.Errorf("trace %q event %d: bad kind %d", t.Name, i, e.Kind)
		}
		if uint32(e.Size)&(uint32(e.Size)-1) == 0 && e.Addr%uint32(e.Size) != 0 {
			return fmt.Errorf("trace %q event %d: address 0x%x not aligned to size %d", t.Name, i, e.Addr, e.Size)
		}
		if uint64(e.Addr)+uint64(e.Size) > 1<<32 {
			return fmt.Errorf("trace %q event %d: access at 0x%x size %d wraps the address space", t.Name, i, e.Addr, e.Size)
		}
	}
	return nil
}

// Slice returns a shallow sub-trace covering events [lo, hi).
func (t *Trace) Slice(lo, hi int) *Trace {
	return &Trace{Name: t.Name, Events: t.Events[lo:hi]}
}

// Append adds an event to the trace.
func (t *Trace) Append(e Event) { t.Events = append(t.Events, e) }

// Len returns the number of events.
func (t *Trace) Len() int { return len(t.Events) }
