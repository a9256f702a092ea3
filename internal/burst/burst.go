// Package burst studies the burstiness of write traffic and of dirty
// victims. The paper raises both and quantifies neither: §3 compares
// the organizations' "ability to handle bursty writes" qualitatively,
// and §5.2 closes with "this section did not study the burstiness of
// dirty victims ... dirty victims are likely to be bursty as well.
// This would imply that the write back port bandwidth would need to be
// made wider than that required by the average bandwidth and/or that
// buffering to hold more than one dirty victim could be useful."
//
// AnalyzeWrites measures store bursts in the instruction stream;
// AnalyzeVictims replays the trace through a write-back cache and
// measures when dirty victims emerge. Both report peak-to-average
// bandwidth over fixed instruction windows — the number a designer
// needs to size the write-back port and the victim buffer.
package burst

import (
	"fmt"

	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
)

// Buckets bounds the burst-length histogram: lengths 1, 2, 3-4, 5-8,
// 9-16, 17+.
var bucketBounds = []int{1, 2, 4, 8, 16}

// BucketLabels returns the histogram bucket labels.
func BucketLabels() []string {
	return []string{"1", "2", "3-4", "5-8", "9-16", "17+"}
}

func bucketOf(n int) int {
	for i, hi := range bucketBounds {
		if n <= hi {
			return i
		}
	}
	return len(bucketBounds)
}

// WriteReport summarizes store burstiness.
type WriteReport struct {
	// Writes is the total store count.
	Writes uint64
	// Bursts histograms maximal store runs (consecutive stores separated
	// by fewer than GapThreshold instructions) by length.
	Bursts [6]uint64
	// MaxBurst is the longest store run observed.
	MaxBurst int
	// Window is the instruction window used for rate measurements.
	Window uint64
	// PeakRate and AvgRate are stores per instruction in the busiest
	// window and on average.
	PeakRate, AvgRate float64
}

// PeakToAvg returns the over-provisioning factor the write path needs
// to absorb the worst window without stalling.
func (r WriteReport) PeakToAvg() float64 {
	if r.AvgRate == 0 {
		return 0
	}
	return r.PeakRate / r.AvgRate
}

// AnalyzeWrites scans the trace for store bursts. gapThreshold is the
// maximum instruction spacing within a burst (2 captures back-to-back
// and one-gap stores, the register-save pattern §3 describes); window
// is the rate-measurement window in instructions.
func AnalyzeWrites(t *trace.Trace, gapThreshold, window uint64) (WriteReport, error) {
	if gapThreshold == 0 || window == 0 {
		return WriteReport{}, fmt.Errorf("burst: gapThreshold and window must be positive")
	}
	m := meter{gap: gapThreshold, window: window}
	var now uint64 // instruction clock
	for _, e := range t.Events {
		now += e.Instructions()
		if e.Kind == trace.Write {
			m.add(now)
		}
	}
	m.finish()
	return WriteReport{Writes: m.events, Bursts: m.bursts, MaxBurst: m.maxBurst, Window: window,
		PeakRate: m.peakRate(), AvgRate: m.avgRate(now)}, nil
}

// VictimReport summarizes dirty-victim burstiness at the back of a
// write-back cache.
type VictimReport struct {
	// DirtyVictims is the total write-back count during execution.
	DirtyVictims uint64
	// Bursts histograms runs of dirty victims emerging within
	// GapThreshold instructions of each other.
	Bursts [6]uint64
	// MaxBurst is the longest run.
	MaxBurst int
	// MaxPending is the maximum number of dirty victims produced within
	// one window — the victim buffer depth needed to avoid stalling the
	// refill path if the next level retires one victim per window.
	MaxPending uint64
	// Window, PeakRate, AvgRate as in WriteReport, for write-backs.
	Window            uint64
	PeakRate, AvgRate float64
}

// PeakToAvg returns the peak-to-average write-back bandwidth ratio.
func (r VictimReport) PeakToAvg() float64 {
	if r.AvgRate == 0 {
		return 0
	}
	return r.PeakRate / r.AvgRate
}

// AnalyzeVictims replays the trace through a write-back fetch-on-write
// cache of the given geometry and measures when dirty victims emerge.
func AnalyzeVictims(t *trace.Trace, cfg cache.Config, gapThreshold, window uint64) (VictimReport, error) {
	if gapThreshold == 0 || window == 0 {
		return VictimReport{}, fmt.Errorf("burst: gapThreshold and window must be positive")
	}
	if cfg.WriteHit != cache.WriteBack {
		return VictimReport{}, fmt.Errorf("burst: victim analysis requires a write-back cache (got %s)", cfg.WriteHit)
	}
	c, err := cache.New(cfg)
	if err != nil {
		return VictimReport{}, err
	}
	m := meter{gap: gapThreshold, window: window}
	var now, prevWBs uint64
	for _, e := range t.Events {
		now += e.Instructions()
		c.Access(e)
		wbs := c.Stats().Writebacks
		for ; prevWBs < wbs; prevWBs++ {
			m.add(now)
		}
	}
	m.finish()
	return VictimReport{DirtyVictims: m.events, Bursts: m.bursts, MaxBurst: m.maxBurst,
		MaxPending: m.peak, Window: window, PeakRate: m.peakRate(), AvgRate: m.avgRate(now)}, nil
}

// meter measures the burstiness of one event stream, fed in time
// order: maximal runs of events at most gap instructions apart,
// histogrammed by length, and the most events in any window of window
// instructions. Windows with no events are closed only when the next
// event arrives; they cannot raise the peak.
type meter struct {
	gap, window uint64

	events   uint64
	bursts   [6]uint64
	maxBurst int
	peak     uint64 // most events in one window

	runLen   int    // length of the open run (0: none yet)
	last     uint64 // time of the previous event
	winStart uint64
	winCount uint64 // events in the open window
}

// add records one event at instruction time now.
func (m *meter) add(now uint64) {
	m.events++
	if m.runLen > 0 && now-m.last <= m.gap {
		m.runLen++
	} else {
		m.endRun()
		m.runLen = 1
	}
	m.last = now
	for now-m.winStart >= m.window {
		m.peak = max(m.peak, m.winCount)
		m.winStart += m.window
		m.winCount = 0
	}
	m.winCount++
}

// endRun histograms the open run, if any.
func (m *meter) endRun() {
	if m.runLen > 0 {
		m.bursts[bucketOf(m.runLen)]++
		m.maxBurst = max(m.maxBurst, m.runLen)
	}
}

// finish closes the open run and window.
func (m *meter) finish() {
	m.endRun()
	m.peak = max(m.peak, m.winCount)
}

// peakRate returns the busiest window's events per instruction.
func (m *meter) peakRate() float64 { return float64(m.peak) / float64(m.window) }

// avgRate returns events per instruction over total instructions.
func (m *meter) avgRate(total uint64) float64 {
	if total == 0 {
		return 0
	}
	return float64(m.events) / float64(total)
}
