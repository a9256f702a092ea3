package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRetryZeroAttemptsMeansOneTry: a zero or negative budget still
// runs the unit exactly once — "no retries", never "no tries".
func TestRetryZeroAttemptsMeansOneTry(t *testing.T) {
	for _, attempts := range []int{0, -3} {
		calls, retries := 0, 0
		boom := errors.New("boom")
		err := Retry(context.Background(), "u", attempts,
			func() error { calls++; return boom },
			func(int, error) { retries++ })
		if calls != 1 {
			t.Fatalf("Attempts=%d: unit ran %d times, want exactly 1", attempts, calls)
		}
		if retries != 0 {
			t.Fatalf("Attempts=%d: onRetry fired %d times for a no-retry budget", attempts, retries)
		}
		var ue *UnitError
		if !errors.As(err, &ue) || ue.Attempts != 1 {
			t.Fatalf("Attempts=%d: err = %v, want *UnitError with Attempts=1", attempts, err)
		}
	}
}

// TestRetryZeroAttemptsSuccess: the single try succeeding returns nil.
func TestRetryZeroAttemptsSuccess(t *testing.T) {
	if err := Retry(context.Background(), "u", 0, func() error { return nil }, nil); err != nil {
		t.Fatalf("err = %v", err)
	}
}

// TestRetryCancelledMidBackoff: cancellation arriving while Retry
// sleeps between attempts must interrupt the sleep promptly and return
// the context's error — not sit out the backoff. The cancel lands 20 ms
// into the wait after attempt 7, which lasts retryBackoff·2^6 = 640 ms,
// so a sleep that ignored ctx could not return within the bound.
func TestRetryCancelledMidBackoff(t *testing.T) {
	const cancelAfter = 7
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cancelled := make(chan time.Time, 1)
	calls := 0
	err := Retry(ctx, "u", 40,
		func() error { calls++; return errors.New("transient") },
		func(attempt int, _ error) {
			if attempt == cancelAfter {
				go func() {
					time.Sleep(20 * time.Millisecond)
					cancelled <- time.Now()
					cancel()
				}()
			}
		})
	returned := time.Now()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if calls != cancelAfter {
		t.Fatalf("unit ran %d times; no attempt may start after the one whose backoff was cancelled (%d)", calls, cancelAfter)
	}
	if wait := returned.Sub(<-cancelled); wait > 200*time.Millisecond {
		t.Fatalf("Retry returned %s after cancellation; it must interrupt the %s backoff sleep", wait, retryBackoff<<(cancelAfter-1))
	}
}

// TestRetryDeadlineErrorNotRetried: an f error that wraps
// context.DeadlineExceeded is treated like cancellation (the deadline
// is a decision), even when ctx itself is still alive.
func TestRetryDeadlineErrorNotRetried(t *testing.T) {
	calls := 0
	wrapped := errors.Join(errors.New("sweep aborted"), context.DeadlineExceeded)
	err := Retry(context.Background(), "u", 5,
		func() error { calls++; return wrapped }, nil)
	if calls != 1 {
		t.Fatalf("deadline-failed unit was tried %d times, want 1", calls)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the deadline error through unchanged", err)
	}
	var ue *UnitError
	if errors.As(err, &ue) {
		t.Fatalf("deadline errors must not be wrapped in UnitError, got %+v", ue)
	}
}

// TestRetryUnitErrorUnwrapping: the final failure must stay reachable
// through the UnitError with errors.Is/As across wrapping layers.
func TestRetryUnitErrorUnwrapping(t *testing.T) {
	sentinel := errors.New("disk on fire")
	wrapped := errors.Join(errors.New("unit 3 failed"), sentinel)
	err := Retry(context.Background(), "grr/cfgs[8:16]", 2,
		func() error { return wrapped }, nil)
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is cannot reach the sentinel through %v", err)
	}
	var ue *UnitError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v (%T), want *UnitError", err, err)
	}
	if ue.Unit != "grr/cfgs[8:16]" || ue.Attempts != 2 {
		t.Fatalf("UnitError = %+v, want unit grr/cfgs[8:16] after 2 attempts", ue)
	}
	if !errors.Is(ue.Unwrap(), sentinel) {
		t.Fatalf("Unwrap() = %v does not reach the sentinel", ue.Unwrap())
	}
	// And a fresh errors.Is against an unrelated error still says no.
	if errors.Is(err, context.Canceled) {
		t.Fatalf("UnitError leaked a context error it never saw")
	}
}

// TestRetryOnRetryNumbering: onRetry reports 1-based attempt numbers,
// once per failed attempt that will be retried — never for the last.
func TestRetryOnRetryNumbering(t *testing.T) {
	var attempts []int
	var errs []string
	calls := 0
	err := Retry(context.Background(), "u", 4,
		func() error { calls++; return errors.New("boom " + string(rune('0'+calls))) },
		func(attempt int, err error) {
			attempts = append(attempts, attempt)
			errs = append(errs, err.Error())
		})
	if err == nil {
		t.Fatal("want exhaustion error")
	}
	if want := []int{1, 2, 3}; len(attempts) != 3 || attempts[0] != want[0] || attempts[1] != want[1] || attempts[2] != want[2] {
		t.Fatalf("onRetry attempts = %v, want %v", attempts, want)
	}
	for i, msg := range errs {
		if want := "boom " + string(rune('1'+i)); msg != want {
			t.Fatalf("onRetry err[%d] = %q, want %q (the attempt that just failed)", i, msg, want)
		}
	}
}

// TestRetryBackoffDoubles: each sleep doubles, so the total wait for
// n retries is bounded by 2^n * retryBackoff — verified coarsely so the
// test stays robust on slow machines (lower bound only).
func TestRetryBackoffDoubles(t *testing.T) {
	const base = retryBackoff
	start := time.Now()
	_ = Retry(context.Background(), "u", 3,
		func() error { return errors.New("transient") }, nil)
	// Sleeps: base + 2*base = 30ms minimum.
	if elapsed := time.Since(start); elapsed < 3*base {
		t.Fatalf("elapsed %s < %s; backoff did not accumulate exponentially", elapsed, 3*base)
	}
}
