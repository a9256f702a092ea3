package core

import (
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/trace"
	"cachewrite/internal/workload"
	"cachewrite/internal/writecache"
)

func baseCfg() cache.Config {
	return cache.Config{Size: 1 << 10, LineSize: 16, Assoc: 1,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
}

func copyTrace(n int) *trace.Trace {
	// A block copy: read source, write destination — the paper's §4
	// motivating example for no-fetch-on-write.
	tr := &trace.Trace{Name: "copy"}
	for i := 0; i < n; i++ {
		tr.Append(trace.Event{Addr: 0x1_0000 + uint32(i*8), Size: 8, Kind: trace.Read})
		tr.Append(trace.Event{Addr: 0x8_0000 + uint32(i*8), Size: 8, Kind: trace.Write})
	}
	return tr
}

func TestRun(t *testing.T) {
	tr := copyTrace(500)
	res, err := Run(Config{L1: baseCfg()}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Trace.Refs() != 1000 {
		t.Errorf("trace refs = %d", res.Trace.Refs())
	}
	if res.L1.Reads != 500 || res.L1.Writes != 500 {
		t.Errorf("L1 saw %d/%d reads/writes", res.L1.Reads, res.L1.Writes)
	}
	if res.L1.Misses() == 0 {
		t.Error("streaming copy produced no misses")
	}
	if res.Hierarchy.L1ToL2Transactions == 0 {
		t.Error("no back-side traffic recorded")
	}
}

func TestRunBadConfig(t *testing.T) {
	if _, err := Run(Config{}, copyTrace(1)); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestRunWithL2AndWriteCache(t *testing.T) {
	l1 := baseCfg()
	l1.WriteHit = cache.WriteThrough
	l2 := cache.Config{Size: 8 << 10, LineSize: 32, Assoc: 2,
		WriteHit: cache.WriteBack, WriteMiss: cache.FetchOnWrite}
	res, err := Run(Config{
		L1:         l1,
		WriteCache: &writecache.Config{Entries: 5, LineSize: 8},
		L2:         &l2,
	}, copyTrace(500))
	if err != nil {
		t.Fatal(err)
	}
	if res.L2.Reads == 0 {
		t.Error("L2 saw no traffic")
	}
}

func TestRunWorkload(t *testing.T) {
	tr, err := workload.Generate("liver", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(Config{L1: baseCfg()}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.L1.Refs() == 0 {
		t.Error("no references simulated")
	}
	if res.Trace != tr.Stats() {
		t.Errorf("result trace stats %+v, want %+v", res.Trace, tr.Stats())
	}
}

func TestComparePoliciesOnBlockCopy(t *testing.T) {
	// The paper's block-copy argument: with fetch-on-write, half the
	// fetch bandwidth is wasted on destination lines that are fully
	// overwritten. Write-validate should eliminate essentially all write
	// misses here.
	cmp, err := ComparePolicies(baseCfg(), copyTrace(2000))
	if err != nil {
		t.Fatal(err)
	}
	if len(cmp.ByPolicy) != 4 {
		t.Fatalf("compared %d policies", len(cmp.ByPolicy))
	}
	wv, _ := cmp.ByPolicy[cache.WriteValidate].MissReductions(cmp.ByPolicy[cache.FetchOnWrite])
	if wv < 0.95 {
		t.Errorf("write-validate removed %.0f%% of copy write misses, want ~100%%", wv*100)
	}
	// Total reduction: write misses are half of all misses in a copy.
	tot := cmp.TotalMissReduction(cache.WriteValidate)
	if tot < 0.45 || tot > 0.55 {
		t.Errorf("write-validate total reduction %.2f, want ~0.5", tot)
	}
	// Fetch-on-write is the baseline: zero reduction by definition.
	if cmp.TotalMissReduction(cache.FetchOnWrite) != 0 {
		t.Error("baseline reduction must be zero")
	}
	// The Fig 17 order.
	if cmp.ByPolicy[cache.WriteValidate].Misses() > cmp.ByPolicy[cache.WriteInvalidate].Misses() ||
		cmp.ByPolicy[cache.WriteAround].Misses() > cmp.ByPolicy[cache.WriteInvalidate].Misses() ||
		cmp.ByPolicy[cache.WriteInvalidate].Misses() > cmp.ByPolicy[cache.FetchOnWrite].Misses() {
		t.Error("Fig 17 partial order violated on block copy")
	}
}

func TestComparePoliciesBadConfig(t *testing.T) {
	if _, err := ComparePolicies(cache.Config{}, copyTrace(1)); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestReductionsZeroDenominators(t *testing.T) {
	cmp := PolicyComparison{ByPolicy: map[cache.WriteMissPolicy]cache.Stats{
		cache.FetchOnWrite:  {},
		cache.WriteValidate: {ReadMissEvents: 3},
	}}
	write, total := cmp.ByPolicy[cache.WriteValidate].MissReductions(cmp.ByPolicy[cache.FetchOnWrite])
	if write != 0 || total != 0 || cmp.TotalMissReduction(cache.WriteValidate) != 0 {
		t.Error("zero denominators must give zero, not NaN")
	}
}
