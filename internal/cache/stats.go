package cache

// Stats holds every counter the paper's figures are derived from.
// Event-level counters count trace events once even when an access
// spans multiple cache lines (an 8B double over 4B lines); traffic
// counters count per line/transaction, matching what the bus would see.
type Stats struct {
	// Instructions is the dynamic instruction count covered by the
	// accesses (event gaps + the referencing instructions).
	Instructions uint64

	// Reads and Writes count data reference events.
	Reads  uint64
	Writes uint64

	// ReadMissEvents counts read events that had to fetch at least one
	// line, including partial-validity misses induced by write-validate.
	ReadMissEvents uint64
	// PartialValidReadMisses counts the subset of ReadMissEvents where
	// the tag matched but some requested bytes were invalid (only
	// possible after write-validate allocations).
	PartialValidReadMisses uint64
	// WriteMissEvents counts write events whose tag lookup missed in at
	// least one spanned line, regardless of policy.
	WriteMissEvents uint64
	// FetchedWriteMisses counts write events that fetched at least one
	// line (non-zero only under fetch-on-write).
	FetchedWriteMisses uint64
	// EliminatedWriteMisses counts write events that tag-missed but
	// completed without fetching (the paper's "eliminated misses" under
	// write-validate / write-around / write-invalidate).
	EliminatedWriteMisses uint64

	// WritesToDirtyLines counts write events for which every spanned
	// line was resident and already dirty — the paper's Figs 1–2 metric:
	// the fraction of write traffic a write-back cache removes.
	WritesToDirtyLines uint64
	// WriteHitEvents counts write events where every spanned line was
	// resident (tag match) with the written bytes writable.
	WriteHitEvents uint64

	// Fetches counts line fetches from the next level; FetchBytes is
	// Fetches times the line size.
	Fetches    uint64
	FetchBytes uint64

	// WriteThroughs counts word transactions passed to the next level on
	// write-through, write-around or write-invalidate writes;
	// WriteThroughBytes sums their sizes.
	WriteThroughs     uint64
	WriteThroughBytes uint64

	// Writebacks counts dirty victim lines written back during program
	// execution (cold stop); WritebackBytesFull assumes whole-line
	// write-backs and WritebackBytesDirty assumes per-byte sub-block
	// dirty bits (paper §5.2's question).
	Writebacks          uint64
	WritebackBytesFull  uint64
	WritebackBytesDirty uint64

	// Victims counts valid lines replaced during program execution;
	// DirtyVictims those with at least one dirty byte;
	// VictimDirtyBytes sums dirty bytes over all victims; VictimBytes
	// sums line sizes over all victims.
	Victims          uint64
	DirtyVictims     uint64
	VictimDirtyBytes uint64
	VictimBytes      uint64

	// Invalidates counts lines invalidated by the write-invalidate
	// policy or by external back-invalidation (InvalidateRange).
	Invalidates uint64

	// SubblockWriteFills counts write hits on partially-valid lines that
	// had to fetch because the written bytes did not cover whole
	// valid-bit sub-blocks (only possible with ValidGranularity > 1).
	SubblockWriteFills uint64

	// Flush* mirror the victim counters for lines flushed by Flush()
	// after execution (flush-stop accounting, §5).
	FlushVictims          uint64
	FlushDirtyVictims     uint64
	FlushVictimDirtyBytes uint64
	FlushVictimBytes      uint64
	FlushWritebacks       uint64
}

// Misses returns the paper's fetch-triggering miss count: read misses
// plus fetched write misses. Eliminated misses are, per the paper's
// definition, not misses.
func (s Stats) Misses() uint64 { return s.ReadMissEvents + s.FetchedWriteMisses }

// Refs returns the total data reference events.
func (s Stats) Refs() uint64 { return s.Reads + s.Writes }

// MissRate returns misses per reference.
func (s Stats) MissRate() float64 { return ratio(s.Misses(), s.Refs()) }

// WriteMissFraction returns write misses as a fraction of all misses
// (paper Figs 10–11; meaningful under fetch-on-write where every write
// miss fetches).
func (s Stats) WriteMissFraction() float64 {
	return ratio(s.FetchedWriteMisses, s.Misses())
}

// WritesToDirtyFraction returns the fraction of writes to already dirty
// lines (paper Figs 1–2) — the write-traffic reduction of a write-back
// cache relative to write-through.
func (s Stats) WritesToDirtyFraction() float64 {
	return ratio(s.WritesToDirtyLines, s.Writes)
}

// MissReductions returns the paper's Figs 13–16 metrics for s against
// the fetch-on-write run fow of the same trace and geometry: the
// fetch-triggering misses s avoids, as a fraction of fow's fetched
// write misses (Figs 13/15) and of all of fow's misses (Figs 14/16).
// A zero denominator gives 0.
//
// Both count all fetch-triggering misses: a write-validate allocation
// whose invalid bytes are later read induces a read miss, which charges
// against the policy exactly as the paper defines eliminated misses
// (§4). The write reduction can exceed 1 when a policy also avoids read
// misses (the paper's liver/write-around case).
func (s Stats) MissReductions(fow Stats) (write, total float64) {
	saved := float64(fow.Misses()) - float64(s.Misses())
	if fow.FetchedWriteMisses > 0 {
		write = saved / float64(fow.FetchedWriteMisses)
	}
	if fow.Misses() > 0 {
		total = saved / float64(fow.Misses())
	}
	return write, total
}

// DirtyVictimFraction returns the fraction of victims with at least one
// dirty byte, under cold-stop accounting (paper Fig 20 solid lines,
// Fig 23).
func (s Stats) DirtyVictimFraction() float64 { return ratio(s.DirtyVictims, s.Victims) }

// DirtyVictimFractionFlushed includes post-execution flush victims
// (paper Fig 20 dotted lines).
func (s Stats) DirtyVictimFractionFlushed() float64 {
	return ratio(s.DirtyVictims+s.FlushDirtyVictims, s.Victims+s.FlushVictims)
}

// DirtyBytesPerDirtyVictim returns the fraction of bytes dirty in
// victims that have at least one dirty byte, flush victims included
// (paper Figs 21, 24).
func (s Stats) DirtyBytesPerDirtyVictim(lineSize int) float64 {
	return ratio(s.VictimDirtyBytes+s.FlushVictimDirtyBytes,
		(s.DirtyVictims+s.FlushDirtyVictims)*uint64(lineSize))
}

// DirtyBytesPerVictim returns the fraction of bytes dirty averaged over
// all victims, clean or dirty, flush victims included (paper Figs 22,
// 25).
func (s Stats) DirtyBytesPerVictim() float64 {
	return ratio(s.VictimDirtyBytes+s.FlushVictimDirtyBytes,
		s.VictimBytes+s.FlushVictimBytes)
}

// BacksideTransactions returns the total transactions at the back of
// the cache during execution: fetches plus write-throughs plus
// write-backs (paper §5.1).
func (s Stats) BacksideTransactions() uint64 {
	return s.Fetches + s.WriteThroughs + s.Writebacks
}

// BacksideBytes returns back-side traffic in bytes, with write-backs
// counted whole-line (subblock=false) or dirty-bytes-only
// (subblock=true) — paper §5.2.
func (s Stats) BacksideBytes(subblock bool) uint64 {
	wb := s.WritebackBytesFull
	if subblock {
		wb = s.WritebackBytesDirty
	}
	return s.FetchBytes + s.WriteThroughBytes + wb
}

// Add accumulates other into s (for averaging across benchmarks).
func (s *Stats) Add(other Stats) {
	s.Instructions += other.Instructions
	s.Reads += other.Reads
	s.Writes += other.Writes
	s.ReadMissEvents += other.ReadMissEvents
	s.PartialValidReadMisses += other.PartialValidReadMisses
	s.WriteMissEvents += other.WriteMissEvents
	s.FetchedWriteMisses += other.FetchedWriteMisses
	s.EliminatedWriteMisses += other.EliminatedWriteMisses
	s.WritesToDirtyLines += other.WritesToDirtyLines
	s.WriteHitEvents += other.WriteHitEvents
	s.Fetches += other.Fetches
	s.FetchBytes += other.FetchBytes
	s.WriteThroughs += other.WriteThroughs
	s.WriteThroughBytes += other.WriteThroughBytes
	s.Writebacks += other.Writebacks
	s.WritebackBytesFull += other.WritebackBytesFull
	s.WritebackBytesDirty += other.WritebackBytesDirty
	s.Victims += other.Victims
	s.DirtyVictims += other.DirtyVictims
	s.VictimDirtyBytes += other.VictimDirtyBytes
	s.VictimBytes += other.VictimBytes
	s.Invalidates += other.Invalidates
	s.SubblockWriteFills += other.SubblockWriteFills
	s.FlushVictims += other.FlushVictims
	s.FlushDirtyVictims += other.FlushDirtyVictims
	s.FlushVictimDirtyBytes += other.FlushVictimDirtyBytes
	s.FlushVictimBytes += other.FlushVictimBytes
	s.FlushWritebacks += other.FlushWritebacks
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
