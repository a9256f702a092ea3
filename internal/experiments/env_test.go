package experiments

import (
	"context"
	"sync"
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/sweep"
)

// TestCacheStatsComputeOnceConcurrent hammers the memo from many
// goroutines (run under -race by `make check`) and asserts the
// misses-once contract: every distinct key is simulated exactly once,
// no matter how many callers race on it, and every caller sees the
// identical result.
func TestCacheStatsComputeOnceConcurrent(t *testing.T) {
	env := syntheticEnv()
	keys := []struct {
		ti  int
		cfg cache.Config
	}{
		{0, stdConfig(1<<10, StdLineSize)},
		{0, stdConfig(2<<10, StdLineSize)},
		{1, stdConfig(1<<10, StdLineSize)},
		{1, stdConfig(StdCacheSize, 32)},
	}
	want := make([]cache.Stats, len(keys))
	fresh := syntheticEnv()
	for i, k := range keys {
		s, err := fresh.CacheStats(k.ti, k.cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = s
	}

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				k := keys[(g+i)%len(keys)]
				s, err := env.CacheStats(k.ti, k.cfg)
				if err != nil {
					errs <- err
					return
				}
				if s != want[(g+i)%len(keys)] {
					t.Errorf("concurrent CacheStats returned a divergent result for %s", k.cfg)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if got := env.Computes(); got != uint64(len(keys)) {
		t.Fatalf("memo computed %d simulations for %d distinct keys (misses-once violated)", got, len(keys))
	}
}

// TestCacheStatsMemoizedErrors: a failing key is also computed once and
// every caller sees the same error.
func TestCacheStatsMemoizedErrors(t *testing.T) {
	env := syntheticEnv()
	bad := cache.Config{Size: 7}
	if _, err := env.CacheStats(0, bad); err == nil {
		t.Fatal("invalid config succeeded")
	}
	if _, err := env.CacheStats(0, bad); err == nil {
		t.Fatal("memoized invalid config succeeded")
	}
	if got := env.Computes(); got != 1 {
		t.Fatalf("failing key computed %d times, want 1", got)
	}
}

// TestPrecomputeGangGoldenEquality is the golden-equality gate for the
// gang engine through the Env path: after a gang-driven PrecomputeSweep,
// every sweep key must be memoized bit-identically to what a fresh
// sequential simulation produces, for every write-hit/write-miss combo
// in the paper sweep — and the precomputed env must not simulate again
// when the figures read those keys back.
func TestPrecomputeGangGoldenEquality(t *testing.T) {
	env := syntheticEnv()
	if err := env.PrecomputeSweep(context.Background(), sweep.Options{Workers: 4}); err != nil {
		t.Fatal(err)
	}
	preComputes := env.Computes()
	if preComputes != 0 {
		t.Fatalf("gang precompute used the sequential path %d times", preComputes)
	}
	fresh := syntheticEnv()
	for ti := range env.Traces {
		for _, cfg := range SweepConfigs() {
			a, err := env.CacheStats(ti, cfg)
			if err != nil {
				t.Fatal(err)
			}
			b, err := fresh.CacheStats(ti, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("gang-precomputed stats differ from sequential for %s on trace %d", cfg, ti)
			}
		}
	}
	if got := env.Computes(); got != 0 {
		t.Fatalf("CacheStats re-simulated %d precomputed keys", got)
	}
}

// TestPrecomputeCancelled: a cancelled context aborts the warmup with
// its error instead of hanging (the old channel-fed pool could strand
// its producer forever).
func TestPrecomputeCancelled(t *testing.T) {
	env := syntheticEnv()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := env.PrecomputeSweep(ctx, sweep.Options{Workers: 2}); err == nil {
		t.Fatal("PrecomputeSweep(cancelled) returned nil")
	}
}
