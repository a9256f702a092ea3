package resilience

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Task is one watched unit of in-flight work. Workers call Beat as
// they make progress (every few thousand events is plenty); the
// watchdog's monitor declares the task stalled when the beat counter
// stops advancing for longer than the soft deadline. Beat is a single
// atomic add, safe for hot loops.
type Task struct {
	name  string
	beats atomic.Uint64

	// Monitor-goroutine state (no locking needed: one reader).
	lastBeats   uint64
	lastAdvance time.Time
	stalled     bool
}

// Beat records forward progress.
func (t *Task) Beat() { t.beats.Add(1) }

// Stall describes one stall episode observed by the watchdog.
type Stall struct {
	// Task is the stalled task's name.
	Task string
	// Idle is how long the task had made no progress when the stall
	// was declared.
	Idle time.Duration
}

// WatchdogConfig tunes a Watchdog.
type WatchdogConfig struct {
	// SoftDeadline is the maximum time a task may go without a beat
	// before it is reported stalled. Zero disables the watchdog
	// entirely (Begin returns tasks, but nothing monitors them).
	SoftDeadline time.Duration
	// OnStall, when non-nil, is called (from the monitor goroutine)
	// once per stall episode: when a task first exceeds the deadline,
	// and again only after it has resumed and stalled anew.
	OnStall func(Stall)
}

// Watchdog monitors the liveness of a pool of workers via heartbeat
// counters. It detects stalls — a worker stuck on one unit past its
// soft deadline — and surfaces them as structured events without
// killing anything: goroutines cannot be preempted, and a stall on an
// oversized unit is information, not necessarily failure.
type Watchdog struct {
	cfg    WatchdogConfig
	mu     sync.Mutex
	active map[*Task]struct{}
	stalls atomic.Uint64
	stop   chan struct{}
	done   chan struct{}
}

// NewWatchdog starts a watchdog. Stop must be called to release its
// monitor goroutine; a zero SoftDeadline yields an inert watchdog with
// no goroutine at all.
func NewWatchdog(cfg WatchdogConfig) *Watchdog {
	w := &Watchdog{cfg: cfg, active: make(map[*Task]struct{})}
	if cfg.SoftDeadline <= 0 {
		return w
	}
	w.stop = make(chan struct{})
	w.done = make(chan struct{})
	go w.monitor()
	return w
}

// Begin registers a unit of work under the given name and returns its
// heartbeat task. The caller must pair it with End.
func (w *Watchdog) Begin(name string) *Task {
	t := &Task{name: name, lastAdvance: time.Now()}
	w.mu.Lock()
	w.active[t] = struct{}{}
	w.mu.Unlock()
	return t
}

// End deregisters a finished unit.
func (w *Watchdog) End(t *Task) {
	w.mu.Lock()
	delete(w.active, t)
	w.mu.Unlock()
}

// Stalls reports how many stall episodes the watchdog has observed.
func (w *Watchdog) Stalls() uint64 { return w.stalls.Load() }

// Stop shuts the monitor down and waits for it to exit. Safe to call
// on an inert watchdog.
func (w *Watchdog) Stop() {
	if w.stop == nil {
		return
	}
	close(w.stop)
	<-w.done
}

// monitor wakes every SoftDeadline/4, but no more often than every
// 10ms, and compares each active task's beat counter against its value
// at the previous poll: a counter that has not advanced for longer than
// the soft deadline is a stall. Comparing counters in the monitor keeps
// time.Now out of the workers' beat path.
func (w *Watchdog) monitor() {
	defer close(w.done)
	ticker := time.NewTicker(max(w.cfg.SoftDeadline/4, 10*time.Millisecond))
	defer ticker.Stop()
	for {
		select {
		case <-w.stop:
			return
		case now := <-ticker.C:
			w.mu.Lock()
			tasks := make([]*Task, 0, len(w.active))
			for t := range w.active {
				tasks = append(tasks, t)
			}
			w.mu.Unlock()
			for _, t := range tasks {
				beats := t.beats.Load()
				if beats != t.lastBeats {
					t.lastBeats = beats
					t.lastAdvance = now
					t.stalled = false
					continue
				}
				idle := now.Sub(t.lastAdvance)
				if idle >= w.cfg.SoftDeadline && !t.stalled {
					t.stalled = true
					w.stalls.Add(1)
					if w.cfg.OnStall != nil {
						w.cfg.OnStall(Stall{Task: t.name, Idle: idle})
					}
				}
			}
		}
	}
}

// retryBackoff is the wait before a unit's first retry; it doubles on
// each subsequent one.
const retryBackoff = 10 * time.Millisecond

// UnitError reports a unit of work that still failed after its retry
// budget was exhausted. It unwraps to the final attempt's error.
type UnitError struct {
	// Unit names the failed unit (e.g. "ccom/cfgs[24:32]").
	Unit string
	// Attempts is how many times the unit was tried.
	Attempts int
	// Err is the final attempt's error.
	Err error
}

func (e *UnitError) Error() string {
	if e.Attempts > 1 {
		return fmt.Sprintf("resilience: unit %s failed after %d attempts: %v", e.Unit, e.Attempts, e.Err)
	}
	return fmt.Sprintf("resilience: unit %s failed: %v", e.Unit, e.Err)
}

func (e *UnitError) Unwrap() error { return e.Err }

// Retry runs f up to attempts times (at least once), sleeping an
// exponentially growing backoff between tries, and wraps the final
// failure in a *UnitError. Context cancellation — of ctx itself, or an
// f error that is a context error — stops retrying immediately:
// cancellation is a decision, not a transient fault. onRetry (may be
// nil) is told about each failed attempt that will be retried.
func Retry(ctx context.Context, unit string, attempts int, f func() error, onRetry func(attempt int, err error)) error {
	attempts = max(attempts, 1)
	backoff := retryBackoff
	var err error
	for attempt := 1; attempt <= attempts; attempt++ {
		if err = f(); err == nil {
			return nil
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		if attempt == attempts {
			break
		}
		if onRetry != nil {
			onRetry(attempt, err)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(backoff):
		}
		backoff *= 2
	}
	return &UnitError{Unit: unit, Attempts: attempts, Err: err}
}
