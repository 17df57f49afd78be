package main

import (
	"math"
	"slices"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or NaN for no values. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// quartiles returns the three cut points that split xs into four
// groups, computed exactly as Python's statistics.quantiles(xs, n=4)
// does with its default "exclusive" method, so a spread printed here
// matches one computed from the same values in Python. It needs at
// least two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	m := ld + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := float64(i*m - j*4)
		q[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q[0], q[1], q[2], true
}

// spread is the distance between the first and third quartile as a
// share of the median: the run-to-run noise measure a bound is set
// against.
func spread(xs []float64) (float64, bool) {
	q1, q2, q3, ok := quartiles(xs)
	if !ok || q2 == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(q2), true
}

// tail returns the highest percentile of xs that still has at least ten
// samples above it, with the percentile it sits at. Fewer than eleven
// samples have no such percentile; ok is false then.
func tail(xs []float64) (value, pct float64, ok bool) {
	n := len(xs)
	if n < 11 {
		return 0, 0, false
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	rank := n - 10 // 1-based; n-rank samples lie above it
	return s[rank-1], 100 * float64(rank) / float64(n), true
}

// pairedRatios divides a[i] by b[i]: the two timings of round i were
// taken back to back, so host-speed drift between rounds cancels.
func pairedRatios(a, b []time.Duration) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = float64(a[i]) / float64(b[i])
	}
	return out
}

// pairedExcessUs is the per-round extra time a over b, in microseconds
// per trial: the self time of the layer a adds on top of b.
func pairedExcessUs(a, b []time.Duration, trials int) []float64 {
	out := make([]float64, len(a))
	for i := range a {
		out[i] = float64(a[i]-b[i]) / float64(time.Microsecond) / float64(trials)
	}
	return out
}

// outcome is what one path delivered in one round, judged against the
// sweep path's bytes.
type outcome struct {
	// trials is the number of trials the round asked the path for.
	trials int
	// identical counts the trials whose line matched the reference
	// line at the same position.
	identical int
	// extra counts lines beyond the reference's end.
	extra int
	// refused (429), failed (an error or a failed job) and replayed (a
	// job that came back already done or resumed from a journal) each
	// fail every trial of the path: none of its lines was produced by
	// the execution being measured.
	refused, failed, replayed bool
}

// ok is the number of the path's trials that count as delivered
// byte-identical. Extra lines make a stream that is not byte-identical
// even when every expected line matched, so each one cancels a trial.
func (o outcome) ok() int {
	if o.refused || o.failed || o.replayed {
		return 0
	}
	return max(0, min(o.identical, o.trials)-o.extra)
}

// okFrac sums outcomes into the ok_frac numerator and denominator.
func okFrac(os []outcome) (ok, attempted int) {
	for _, o := range os {
		ok += o.ok()
		attempted += o.trials
	}
	return ok, attempted
}
