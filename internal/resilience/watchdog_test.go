package resilience

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestWatchdogDetectsStall(t *testing.T) {
	var mu sync.Mutex
	var stalls []Stall
	w := NewWatchdog(WatchdogConfig{
		SoftDeadline: 50 * time.Millisecond,
		OnStall: func(s Stall) {
			mu.Lock()
			stalls = append(stalls, s)
			mu.Unlock()
		},
	})
	defer w.Stop()

	task := w.Begin("stuck-unit")
	defer w.End(task)
	deadline := time.Now().Add(5 * time.Second)
	for w.Stalls() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("watchdog never reported the silent task")
		}
		time.Sleep(5 * time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(stalls) == 0 || stalls[0].Task != "stuck-unit" || stalls[0].Idle < 50*time.Millisecond {
		t.Fatalf("stalls = %+v", stalls)
	}
}

func TestWatchdogBeatingTaskNeverStalls(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{SoftDeadline: 40 * time.Millisecond})
	defer w.Stop()
	task := w.Begin("busy-unit")
	stop := time.After(200 * time.Millisecond)
	for {
		select {
		case <-stop:
			w.End(task)
			if n := w.Stalls(); n != 0 {
				t.Fatalf("beating task reported %d stalls", n)
			}
			return
		default:
			task.Beat()
			time.Sleep(time.Millisecond)
		}
	}
}

// TestWatchdogStallEpisodes: a task that stalls, resumes, and stalls
// again is two episodes, not a report per poll.
func TestWatchdogStallEpisodes(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{SoftDeadline: 30 * time.Millisecond})
	defer w.Stop()
	task := w.Begin("bursty-unit")
	defer w.End(task)

	waitStalls := func(want uint64) {
		deadline := time.Now().Add(5 * time.Second)
		for w.Stalls() < want {
			if time.Now().After(deadline) {
				t.Fatalf("stalls stuck at %d, want %d", w.Stalls(), want)
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	waitStalls(1)
	// Resume: the episode must end, and staying silent again must open
	// exactly one more.
	for i := 0; i < 5; i++ {
		task.Beat()
		time.Sleep(15 * time.Millisecond)
	}
	waitStalls(2)
	if n := w.Stalls(); n != 2 {
		t.Fatalf("stalls = %d, want 2", n)
	}
}

func TestWatchdogInertWhenDisabled(t *testing.T) {
	w := NewWatchdog(WatchdogConfig{})
	task := w.Begin("unit")
	task.Beat()
	w.End(task)
	w.Stop() // must not hang: no monitor goroutine exists
	if w.Stalls() != 0 {
		t.Fatal("inert watchdog reported stalls")
	}
}

func TestRetrySucceedsWithinBudget(t *testing.T) {
	calls := 0
	var retries []int
	err := Retry(context.Background(), "u", 3,
		func() error {
			calls++
			if calls < 3 {
				return errors.New("transient")
			}
			return nil
		},
		func(attempt int, err error) { retries = append(retries, attempt) })
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || len(retries) != 2 {
		t.Fatalf("calls = %d, retries = %v", calls, retries)
	}
}

func TestRetryExhaustionIsStructured(t *testing.T) {
	boom := errors.New("boom")
	err := Retry(context.Background(), "ccom/cfgs[0:8]", 2,
		func() error { return boom }, nil)
	var ue *UnitError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v (%T), want *UnitError", err, err)
	}
	if ue.Unit != "ccom/cfgs[0:8]" || ue.Attempts != 2 || !errors.Is(err, boom) {
		t.Fatalf("UnitError = %+v", ue)
	}
}

// TestRetryStopsOnCancellation: cancellation is never retried — it is
// a decision, not a transient fault.
func TestRetryStopsOnCancellation(t *testing.T) {
	calls := 0
	err := Retry(context.Background(), "u", 5,
		func() error { calls++; return context.Canceled }, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
	if calls != 1 {
		t.Fatalf("cancelled unit was tried %d times", calls)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls = 0
	err = Retry(ctx, "u", 5,
		func() error { calls++; return errors.New("transient") }, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ctx error from backoff wait", err)
	}
	if calls != 1 {
		t.Fatalf("calls = %d, want 1 (backoff wait must honor ctx)", calls)
	}
}
