package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// Expected values from Python 3's statistics.quantiles(xs, n=4).
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10, 20, 30, 40, 50, 60, 70}, [3]float64{20, 40, 60}},
	}
	for _, c := range cases {
		q1, q2, q3, err := quartiles(c.xs)
		if err != nil {
			t.Fatalf("quartiles(%v): %v", c.xs, err)
		}
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
	if _, _, _, err := quartiles([]float64{1}); err == nil {
		t.Error("quartiles of one sample: want an error")
	}
}

func TestSpread(t *testing.T) {
	sp, err := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := (8.25 - 2.75) / 5.5; math.Abs(sp-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", sp, want)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

func TestTailKeepsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, so tailOf must sort
		}
		return xs
	}
	for _, c := range []struct {
		n       int
		value   float64
		pct     float64
		samples int
	}{
		{11, 1, 100.0 / 11, 11},
		{100, 90, 90, 100},
		{400, 390, 97.5, 400},
	} {
		got := tailOf(seq(c.n))
		if got.Max || got.Value != c.value || math.Abs(got.Percentile-c.pct) > 1e-9 || got.Samples != c.samples || got.Beyond != tailMinBeyond {
			t.Errorf("tailOf(%d samples) = %+v, want value %v at p%v with %d beyond", c.n, got, c.value, c.pct, tailMinBeyond)
		}
		beyond := 0
		for _, x := range seq(c.n) {
			if x > got.Value {
				beyond++
			}
		}
		if beyond != tailMinBeyond {
			t.Errorf("tailOf(%d samples): %d samples beyond the tail, want %d", c.n, beyond, tailMinBeyond)
		}
	}
	// Ten samples cannot have ten beyond any of them: the maximum is
	// reported and flagged.
	if got := tailOf(seq(10)); !got.Max || got.Value != 10 || got.Beyond != 0 {
		t.Errorf("tailOf(10 samples) = %+v, want the flagged maximum", got)
	}
}

func TestSelfTimeMergesOverlappingChildren(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 10},
		{ID: 1, Parent: 0, Start: 1, End: 4},
		{ID: 2, Parent: 0, Start: 3, End: 6}, // overlaps span 1
		{ID: 3, Parent: 0, Start: 8, End: 9},
		{ID: 4, Parent: 1, Start: 1, End: 2}, // grandchild: already covered
	}
	if got := selfTime(spans, 0); math.Abs(got-4) > 1e-12 {
		t.Errorf("selfTime = %v, want 4 (10 minus [1,6] and [8,9])", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, "")
	tr.end(id, 1, 1)
	if id != -1 || tr.snapshot() != nil {
		t.Error("a nil tracer must not record spans")
	}
}
