package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"
)

// summarizeRuns reads result lines (any other line is skipped) and
// prints, for every metric, its median over the runs and the spread
// between its quartiles as a share of the median — the figure each
// end-to-end bound in BENCHMARK.json is set against. For every
// end-to-end metric that also appears as traced.<name>, it prints the
// tracing overhead: the traced run's median relative to the untraced
// runs'.
func summarizeRuns(r io.Reader, w io.Writer) error {
	values := map[string][]float64{}
	units := map[string]string{}
	runs, failed := 0, 0
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		var res result
		if !strings.HasPrefix(line, "{") || json.Unmarshal([]byte(line), &res) != nil || res.Metrics == nil {
			continue
		}
		runs++
		if !res.Correct {
			failed++
		}
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
			units[k] = m.Unit
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if runs == 0 {
		return fmt.Errorf("no result lines on input")
	}
	fmt.Fprintf(w, "%d runs, %d not correct\n", runs, failed)
	fmt.Fprintf(w, "%-34s %4s %14s %14s %14s %8s %s\n", "metric", "n", "median", "q1", "q3", "spread", "unit")
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		xs := values[k]
		q1s, q3s, sps := "-", "-", "-"
		if q1, _, q3, ok := quartiles(xs); ok {
			q1s, q3s = fmt.Sprintf("%.6g", q1), fmt.Sprintf("%.6g", q3)
		}
		if sp, ok := spread(xs); ok {
			sps = fmt.Sprintf("%.4f", sp)
		}
		fmt.Fprintf(w, "%-34s %4d %14.6g %14s %14s %8s %s\n", k, len(xs), median(xs), q1s, q3s, sps, units[k])
	}
	header := false
	for _, k := range names {
		traced, ok := values["traced."+k]
		if !ok {
			continue
		}
		if !header {
			fmt.Fprintf(w, "\ntracing overhead (traced median vs untraced median)\n")
			header = true
		}
		u, t := median(values[k]), median(traced)
		fmt.Fprintf(w, "%-34s %14.6g -> %14.6g %+8.2f%% %s\n", k, u, t, 100*(t-u)/u, units[k])
	}
	return nil
}
