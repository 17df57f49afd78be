package main

import (
	"math"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{2, 2, 9, 1, 7, 2}, 2},
	} {
		in := append([]float64(nil), tc.xs...)
		if got := median(tc.xs); !near(got, tc.want) {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
		for i := range in {
			if in[i] != tc.xs[i] {
				t.Fatalf("median reordered its input: %v", tc.xs)
			}
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no values is not NaN")
	}
}

// The expected quartiles are what Python's
// statistics.quantiles(xs, n=4) prints for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{0.5, 0.1, 0.9, 0.3, 0.7}, 0.2, 0.5, 0.8},
	} {
		q1, q2, q3, ok := quartiles(tc.xs)
		if !ok || !near(q1, tc.q1) || !near(q2, tc.q2) || !near(q3, tc.q3) {
			t.Errorf("quartiles(%v) = %v %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, ok, tc.q1, tc.q2, tc.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one value reported ok")
	}
	sp, ok := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if !ok || !near(sp, (8.25-2.75)/5.5) {
		t.Errorf("spread = %v %v", sp, ok)
	}
}

func TestTailKeepsTenSamplesAbove(t *testing.T) {
	if _, _, ok := tail(make([]float64, 10)); ok {
		t.Error("ten samples gave a tail")
	}
	// Eleven samples: only the minimum has ten above it.
	xs := []float64{11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	v, pct, ok := tail(xs)
	if !ok || v != 1 || !near(pct, 100.0/11) {
		t.Errorf("tail(11) = %v %v %v", v, pct, ok)
	}
	// 100 samples 1..100: the 90th value has exactly ten above it.
	xs = make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	v, pct, ok = tail(xs)
	if !ok || v != 90 || pct != 90 {
		t.Errorf("tail(100) = %v %v %v, want 90 at p90", v, pct, ok)
	}
	above := 0
	for _, x := range xs {
		if x > v {
			above++
		}
	}
	if above != 10 {
		t.Errorf("%d samples above the tail, want 10", above)
	}
}

func TestPairedRatiosAreRoundByRound(t *testing.T) {
	a := []time.Duration{110, 240, 330}
	b := []time.Duration{100, 200, 300}
	got := pairedRatios(a, b)
	want := []float64{1.1, 1.2, 1.1}
	for i := range want {
		if !near(got[i], want[i]) {
			t.Fatalf("pairedRatios = %v, want %v", got, want)
		}
	}
	// The median of per-round ratios differs from the ratio of medians
	// when rounds drift: here it is 1.1, the ratio of medians 1.2.
	if m := median(got); !near(m, 1.1) {
		t.Errorf("median ratio %v, want 1.1", m)
	}
	ex := pairedExcessUs([]time.Duration{3 * time.Millisecond}, []time.Duration{time.Millisecond}, 4)
	if !near(ex[0], 500) {
		t.Errorf("pairedExcessUs = %v, want 500 us per trial", ex)
	}
}

func TestOkFracCountsEveryFailureKind(t *testing.T) {
	for _, tc := range []struct {
		name string
		o    outcome
		ok   int
	}{
		{"identical", outcome{trials: 8, identical: 8}, 8},
		{"one line differs", outcome{trials: 8, identical: 7}, 7},
		{"short stream", outcome{trials: 8, identical: 5}, 5},
		{"extra lines", outcome{trials: 8, identical: 8, extra: 2}, 6},
		{"refused submit", outcome{trials: 8, identical: 8, refused: true}, 0},
		{"failed job", outcome{trials: 8, identical: 3, failed: true}, 0},
		{"replayed job", outcome{trials: 8, identical: 8, replayed: true}, 0},
	} {
		if got := tc.o.ok(); got != tc.ok {
			t.Errorf("%s: ok = %d, want %d", tc.name, got, tc.ok)
		}
	}
	ok, attempted := okFrac([]outcome{
		{trials: 8, identical: 8},
		{trials: 8, identical: 8, refused: true},
		{trials: 8, identical: 6},
	})
	if ok != 14 || attempted != 24 {
		t.Errorf("okFrac = %d/%d, want 14/24", ok, attempted)
	}
}

func TestLineCheckJudgesByPosition(t *testing.T) {
	ref := []byte("a\nb\nc\n")
	for _, tc := range []struct {
		name   string
		chunks []string
		ok     int
	}{
		{"identical in one write", []string{"a\nb\nc\n"}, 3},
		{"identical split mid-line", []string{"a\nb", "\nc", "\n"}, 3},
		{"middle line differs", []string{"a\nx\nc\n"}, 2},
		{"short", []string{"a\nb\n"}, 2},
		{"torn last line", []string{"a\nb\nc"}, 1},
		{"duplicate line shifts the rest", []string{"a\na\nb\nc\n"}, 0},
		{"extra trailing line", []string{"a\nb\nc\nd\n"}, 2},
	} {
		c := newLineCheck(ref)
		for _, ch := range tc.chunks {
			c.Write([]byte(ch))
		}
		if got := c.outcome(3).ok(); got != tc.ok {
			t.Errorf("%s: ok = %d, want %d", tc.name, got, tc.ok)
		}
	}
}

func TestParseCPUTicks(t *testing.T) {
	a := parseCPUTicks("cpu  100 0 50 800 50 0 0 0 0 0")
	b := parseCPUTicks("cpu  160 0 70 860 60 0 0 50 0 0")
	steal, busy := a.shares(b)
	// 200 ticks elapsed: 80 busy, 70 idle or iowait, 50 stolen.
	if !near(steal, 0.25) || !near(busy, 0.4) {
		t.Errorf("shares = %v %v, want 0.25 0.4", steal, busy)
	}
	if parseCPUTicks("intr 1 2 3").ok {
		t.Error("parsed a non-cpu line")
	}
}

func TestSummarizeReportsSpreadAndTracingOverhead(t *testing.T) {
	in := strings.Join([]string{
		`noise before the result`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"x":{"value":1,"unit":"s"}}}`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"x":{"value":3,"unit":"s"}}}`,
		`{"correct":true,"attempted":1,"failed":0,"metrics":{"traced.x":{"value":2.2,"unit":"s"}}}`,
	}, "\n")
	var out strings.Builder
	if err := summarizeRuns(strings.NewReader(in), &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"3 runs, 0 not correct", "tracing overhead", "+10.00%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("summary lacks %q:\n%s", want, out.String())
		}
	}
}
