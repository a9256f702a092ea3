package faults

import (
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/hierarchy"
	"cachewrite/internal/synth"
	"cachewrite/internal/trace"
)

func wbCfg() cache.Config {
	return cache.Config{Size: 1 << 10, LineSize: 16, Assoc: 1,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
}

func wtCfg() cache.Config {
	return cache.Config{Size: 1 << 10, LineSize: 16, Assoc: 1,
		WriteHit: cache.WriteThrough, WriteMiss: cache.FetchOnWrite}
}

// l1Only is the paper's single-cache experiment: an L1-only hierarchy
// whose L1 alone is struck, under scheme s.
func l1Only(c cache.Config, s Scheme, every int, seed uint64) HierarchyConfig {
	cfg := HierarchyConfig{
		Hierarchy:  hierarchy.Config{L1: c},
		Layers:     []Layer{LayerL1},
		ErrorEvery: every,
		Seed:       seed,
	}
	cfg.Schemes[LayerL1] = s
	return cfg
}

// injectL1 runs cfg and returns the L1's report.
func injectL1(t *testing.T, cfg HierarchyConfig, tr *trace.Trace) LayerReport {
	t.Helper()
	rep, err := InjectHierarchy(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return rep.Layer(LayerL1)
}

func TestSchemeStrings(t *testing.T) {
	if ByteParity.String() != "byte parity" || WordSECECC.String() != "word SEC ECC" {
		t.Error("scheme names wrong")
	}
	if Scheme(9).String() == "" {
		t.Error("unknown scheme should render")
	}
}

func TestValidate(t *testing.T) {
	if err := l1Only(wbCfg(), ByteParity, 100, 0).Validate(); err != nil {
		t.Fatalf("good config rejected: %v", err)
	}
	if l1Only(cache.Config{}, ByteParity, 100, 0).Validate() == nil {
		t.Error("bad cache accepted")
	}
	if l1Only(wbCfg(), ByteParity, 0, 0).Validate() == nil {
		t.Error("zero rate accepted")
	}
	if _, err := InjectHierarchy(HierarchyConfig{}, &trace.Trace{}); err == nil {
		t.Error("InjectHierarchy accepted bad config")
	}
}

func TestWriteThroughParityNeverLosesData(t *testing.T) {
	// A write-through cache never holds dirty data, so byte parity plus
	// refetch recovers every error — the paper's core claim.
	tr, err := synth.HotCold(3, 30000, 16, 16, 1<<16, 80, 40)
	if err != nil {
		t.Fatal(err)
	}
	rep := injectL1(t, l1Only(wtCfg(), ByteParity, 50, 0), tr)
	if rep.Injected == 0 {
		t.Fatal("no errors injected")
	}
	if rep.DUE+rep.SDC != 0 {
		t.Errorf("write-through + parity lost data %d times", rep.DUE+rep.SDC)
	}
	if rep.RecoveredByRefetch != rep.Injected {
		t.Errorf("recovered %d of %d", rep.RecoveredByRefetch, rep.Injected)
	}
	if rep.RefetchTraffic == 0 {
		t.Error("recovery traffic not accounted")
	}
}

func TestWriteBackParityLosesDirtyData(t *testing.T) {
	// A write-back cache with only parity loses data whenever an upset
	// strikes a dirty word — the paper's reason WB "requires" ECC.
	tr, err := synth.HotCold(3, 30000, 16, 16, 1<<16, 80, 40)
	if err != nil {
		t.Fatal(err)
	}
	rep := injectL1(t, l1Only(wbCfg(), ByteParity, 50, 0), tr)
	if rep.DUE == 0 {
		t.Error("write-back + parity never lost data on a write-heavy trace")
	}
	if rep.SDC != 0 || rep.DUE > rep.Injected {
		t.Errorf("parity losses must all be detected: %+v", rep)
	}
}

func TestWriteBackECCCorrectsSingles(t *testing.T) {
	tr, err := synth.HotCold(3, 30000, 16, 16, 1<<16, 80, 40)
	if err != nil {
		t.Fatal(err)
	}
	parity := injectL1(t, l1Only(wbCfg(), ByteParity, 50, 0), tr)
	ecc := injectL1(t, l1Only(wbCfg(), WordSECECC, 50, 0), tr)
	if ecc.CorrectedInPlace == 0 {
		t.Error("ECC corrected nothing")
	}
	if ecc.DUE >= parity.DUE {
		t.Errorf("ECC (%d losses) not better than parity (%d) on a write-back cache",
			ecc.DUE, parity.DUE)
	}
}

func TestDeterminism(t *testing.T) {
	tr, _ := synth.HotCold(5, 10000, 16, 16, 1<<16, 80, 40)
	cfg := l1Only(wbCfg(), WordSECECC, 64, 42)
	if a, b := injectL1(t, cfg, tr), injectL1(t, cfg, tr); a != b {
		t.Error("injection not deterministic")
	}
}
