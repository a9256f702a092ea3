package advisor

import (
	"testing"

	"cachewrite/internal/cache"
	"cachewrite/internal/workload"
)

// TestRecommendRecordedValues pins Recommend on two paper workloads,
// at the default geometry and at a small 1KB/4B cache, against values
// recorded from a separate policy comparison and write-back
// simulation. Recommend reads its miss reduction and write-back cut off
// its four timing runs instead, which holds only while miss counts do
// not depend on the write-hit policy and the fetch-on-write run is the
// write-back cache under study. Floats compare exactly: %v round-trips.
func TestRecommendRecordedValues(t *testing.T) {
	type want struct {
		miss    cache.WriteMissPolicy
		hit     cache.WriteHitPolicy
		entries int
		red     float64
		wbCut   float64
		wcCut   float64
		cpi     map[cache.WriteMissPolicy]float64
		why     string
	}
	const (
		fow = cache.FetchOnWrite
		wv  = cache.WriteValidate
		wa  = cache.WriteAround
		wi  = cache.WriteInvalidate
	)
	small := Request{Size: 1024, LineSize: 4, Assoc: 1}
	cases := []struct {
		workload string
		req      Request
		want     want
	}{
		{"liver", stdReq(), want{
			miss: wa, hit: cache.WriteThrough, entries: 1,
			red: 0.3864571778854574, wbCut: 0.4955008339917479, wcCut: 0.00010973575629883242,
			cpi: map[cache.WriteMissPolicy]float64{fow: 2.9770057233213443, wv: 2.355418688296118, wa: 2.224402672518391, wi: 2.375168258722402},
			why: "write-around minimizes estimated CPI (2.224 vs 2.977 for fetch-on-write), removing 39% of fetch-triggering misses.\n" +
				"A 1-entry write cache removes 0% of writes vs 50% for write-back: keep write-through with byte parity (paper §3.3/§6).\n",
		}},
		{"liver", small, want{
			miss: wv, hit: cache.WriteThrough, entries: 1,
			red: 0.31508975126703376, wbCut: 0.0032372048108155562, wcCut: 0.00010973575629883242,
			cpi: map[cache.WriteMissPolicy]float64{fow: 8.902367380386623, wv: 6.465194790580108, wa: 6.478574695330884, wi: 6.483191440554355},
			why: "write-validate minimizes estimated CPI (6.465 vs 8.902 for fetch-on-write), removing 32% of fetch-triggering misses.\n" +
				"A 1-entry write cache removes 0% of writes vs 0% for write-back: keep write-through with byte parity (paper §3.3/§6).\n",
		}},
		{"yacc", stdReq(), want{
			miss: wv, hit: cache.WriteBack, entries: 0,
			red: 0.4771505664175429, wbCut: 0.921882640586797, wcCut: 0.8420503460862977,
			cpi: map[cache.WriteMissPolicy]float64{fow: 1.391458448249557, wv: 1.2047224490274944, wa: 1.4267217314472822, wi: 1.4278534292118856},
			why: "write-validate minimizes estimated CPI (1.205 vs 1.391 for fetch-on-write), removing 48% of fetch-triggering misses.\n" +
				"Write-back halves the write traffic remaining after a 10-entry write cache (92% vs 84% removed): worth the ECC overhead (paper §3.3).\n",
		}},
		{"yacc", small, want{
			miss: wa, hit: cache.WriteThrough, entries: 10,
			red: 0.518367980618822, wbCut: 0.003571059609490685, wcCut: 0.8420503460862977,
			cpi: map[cache.WriteMissPolicy]float64{fow: 5.643645139819163, wv: 3.639605397946849, wa: 3.4575743273942954, wi: 3.640586621823492},
			why: "write-around minimizes estimated CPI (3.458 vs 5.644 for fetch-on-write), removing 52% of fetch-triggering misses.\n" +
				"A 10-entry write cache removes 84% of writes vs 0% for write-back: keep write-through with byte parity (paper §3.3/§6).\n",
		}},
	}
	for _, c := range cases {
		tr, err := workload.Generate(c.workload, 1)
		if err != nil {
			t.Fatal(err)
		}
		adv, err := Recommend(c.req, tr)
		if err != nil {
			t.Fatal(err)
		}
		w := c.want
		name := c.workload
		if c.req.LineSize != 16 {
			name += "/small"
		}
		if adv.WriteMiss != w.miss || adv.WriteHit != w.hit || adv.WriteCacheEntries != w.entries {
			t.Errorf("%s: chose %s/%s/%d entries, want %s/%s/%d", name,
				adv.WriteMiss, adv.WriteHit, adv.WriteCacheEntries, w.miss, w.hit, w.entries)
		}
		if adv.MissReduction != w.red || adv.WBTrafficCut != w.wbCut || adv.WCTrafficCut != w.wcCut {
			t.Errorf("%s: reduction %v, cuts %v/%v, want %v, %v/%v", name,
				adv.MissReduction, adv.WBTrafficCut, adv.WCTrafficCut, w.red, w.wbCut, w.wcCut)
		}
		if len(adv.CPI) != len(w.cpi) {
			t.Errorf("%s: CPI for %d policies, want %d", name, len(adv.CPI), len(w.cpi))
		}
		for p, cpi := range w.cpi {
			if adv.CPI[p] != cpi {
				t.Errorf("%s: CPI[%s] = %v, want %v", name, p, adv.CPI[p], cpi)
			}
		}
		if adv.Rationale != w.why {
			t.Errorf("%s: rationale\n%q\nwant\n%q", name, adv.Rationale, w.why)
		}
	}
}
