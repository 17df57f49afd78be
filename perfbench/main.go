// Command perfbench is the repository's end-to-end benchmark: it sends
// one Monte-Carlo sweep of Alice against Carol through every layer —
// scenario set-up, the kernel, the streaming session, NDJSON encoding,
// the checkpoint journal, the rcserved job service and the dist
// coordinator — and reports one JSON line of metrics.
//
// Run it from the repository root through its wrapper, which builds it:
//
//	bash perfbench/run.sh --workload jam-clique --seed 1 --seconds 35 --trace 0
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// ones. --summarize reads result lines on standard input and prints
// each metric's median and quartile spread (see steady.sh). README.md
// explains the workloads, the metrics and the noise they are built to
// survive.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"rcbcast/internal/dist"
	"rcbcast/internal/scenario"
	"rcbcast/internal/sim"
	"rcbcast/internal/sim/sink"
)

// buildDir is the checkout-local directory the wrapper builds into; job
// stores and span files live under it too.
const buildDir = ".bench_build"

// minRounds keeps medians and the traced run's latency tails defined
// when --seconds is shorter than two rounds.
const minRounds = 2

func main() {
	var (
		name      = flag.String("workload", "", "workload: jam-clique, jam-gilbert or benign-many")
		seed      = flag.Uint64("seed", 1, "seed every round's base seed is derived from")
		seconds   = flag.Int("seconds", 30, "how long to keep starting rounds")
		trace     = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
		summarize = flag.Bool("summarize", false, "read result lines on stdin and print medians and spreads")
	)
	flag.Parse()
	if *summarize {
		if err := summarizeRuns(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	res := b.result()
	printReport(os.Stdout, res)
	printHost(os.Stdout, b.host())
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// span is one timed call into a layer. Every run writes its spans to
// buildDir/spans when it ends, so a noisy run's rounds can be examined
// afterwards.
type span struct {
	Round   int    `json:"round"`
	Name    string `json:"name"`
	Parent  string `json:"parent"`
	StartNs int64  `json:"start_ns"`
	DurNs   int64  `json:"dur_ns"`
}

// bench is one run's state: the workload, its servers and every
// per-round series the metrics are computed from.
type bench struct {
	w     workload
	js    []byte
	sc    scenario.Scenario
	procs int
	seed  uint64
	trace bool
	rig   *rig
	root  string // this run's fresh job-store root
	t0    time.Time
	spans []span

	ref bytes.Buffer // the sweep path's output for the current round

	trials             int
	sweep, svc, dst    []time.Duration
	outcomes           []outcome
	distRetries        int64
	distShards         []int
	distWindowPeak     int
	probes             probeSeries
	setup              setup
	rejected           int64
	failedJobs         int
	heap               *heapWatch
	heapPeaks          []float64 // per round, MiB
	hostStart, hostEnd cpuTicks
	wall               time.Duration
}

// timed runs fn as a span of round r. It collects garbage first, so a
// call pays for the collections its own allocations cause and not for
// the garbage the previous call left behind. The second collection
// empties sync.Pool's victim cache too, so no engine scratch pooled by
// the previous call is still live during this one.
func (b *bench) timed(r int, name string, fn func() error) (time.Duration, error) {
	runtime.GC()
	runtime.GC()
	start := time.Now()
	err := fn()
	d := time.Since(start)
	b.spans = append(b.spans, span{Round: r, Name: name, Parent: fmt.Sprintf("round%d", r), StartNs: start.Sub(b.t0).Nanoseconds(), DurNs: d.Nanoseconds()})
	return d, err
}

// roundSeed derives round r's base seed from the run's seed, so no two
// rounds share service job ids and the same seed gives the same inputs.
func roundSeed(seed uint64, r int) uint64 { return sim.TrialSeed(seed, r) }

func run(w workload, seed uint64, seconds time.Duration, trace bool) (*bench, error) {
	if _, err := os.Stat(filepath.Join("perfbench", "go.mod")); err != nil {
		return nil, errors.New("run from the repository root")
	}
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	js, err := w.spec()
	if err != nil {
		return nil, err
	}
	sc, err := scenario.Decode(js)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(buildDir, "jobs-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	b := &bench{w: w, js: js, sc: sc, procs: procs, seed: seed, trace: trace, root: root, t0: time.Now()}
	b.hostStart = readCPUTicks()
	b.heap = watchHeap()
	defer b.heap.stop()
	if err := b.setup.measureHeap(js, w.trials, roundSeed(seed, -1)); err != nil {
		return nil, err
	}
	if b.rig, err = newRig(root, procs); err != nil {
		return nil, err
	}
	runErr := b.rounds(seconds)
	b.rejected, b.failedJobs = b.rig.serviceCounts()
	closeErr := b.rig.close()
	if err := errors.Join(runErr, closeErr); err != nil {
		return nil, err
	}
	b.hostEnd = readCPUTicks()
	b.wall = time.Since(b.t0)
	if err := b.writeSpans(); err != nil {
		return nil, err
	}
	return b, nil
}

// runDeadline bounds a whole run, so a hung path fails the run instead
// of outliving the caller's patience.
const runDeadline = 170 * time.Second

// rounds runs rounds until starting another would overrun seconds.
func (b *bench) rounds(seconds time.Duration) error {
	ctx, cancel := context.WithDeadline(context.Background(), b.t0.Add(runDeadline))
	defer cancel()
	start := time.Now()
	var last time.Duration
	for r := 0; r < minRounds || time.Since(start)+last <= seconds; r++ {
		t := time.Now()
		if err := b.round(ctx, r); err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		last = time.Since(t)
	}
	return nil
}

// round sends one freshly seeded sweep through the sweep, service and
// dist paths back to back, alternating the order of the last two so
// neither always runs right after the sweep.
func (b *bench) round(ctx context.Context, r int) error {
	base := roundSeed(b.seed, r)
	trials := b.w.trials
	if err := b.setup.measure(b.js, trials, base); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	b.heap.take() // the set-up loop's garbage is not the paths' heap
	b.ref.Reset()
	sweepOut := outcome{trials: trials}
	d, err := b.timed(r, "sweep", func() error {
		return b.sc.Stream(ctx, b.procs, base, 0, trials, sink.NewNDJSON(&b.ref))
	})
	if err != nil {
		return fmt.Errorf("sweep path: %w", err)
	}
	sweepOut.identical = trials
	ref := b.ref.Bytes()

	var svcOut, dstOut outcome
	var svcD, dstD time.Duration
	servicePath := func() error {
		var err error
		svcD, err = b.timed(r, "service", func() error {
			svcOut, err = b.rig.servicePath(ctx, b.js, trials, base, ref)
			return err
		})
		if err != nil {
			return err
		}
		bad, err := b.rig.newlyBad(b.rig.service)
		svcOut.replayed = svcOut.replayed || bad
		return err
	}
	distPath := func() error {
		dedupes0 := b.rig.tap.dedupeCount()
		var err error
		var m dist.Metrics
		var peak int
		dstD, err = b.timed(r, "dist", func() error {
			dstOut, m, peak, err = b.rig.distPath(ctx, b.sc, trials, base, ref, b.trace)
			return err
		})
		if err != nil {
			return err
		}
		dedupes1 := b.rig.tap.dedupeCount()
		bad, err := b.rig.newlyBad(b.rig.workers...)
		dstOut.replayed = dstOut.replayed || bad || dedupes1 > dedupes0
		b.distRetries += m.Retries
		b.distShards = append(b.distShards, m.TotalShards)
		b.distWindowPeak = max(b.distWindowPeak, peak)
		return err
	}
	paths := []func() error{servicePath, distPath}
	if r%2 == 1 {
		slices.Reverse(paths)
	}
	for _, p := range paths {
		if err := p(); err != nil {
			return err
		}
	}
	if b.trace {
		if err := b.probe(ctx, r, base, &sweepOut); err != nil {
			return err
		}
	}
	b.trials += trials
	b.sweep = append(b.sweep, d)
	b.svc = append(b.svc, svcD)
	b.dst = append(b.dst, dstD)
	b.outcomes = append(b.outcomes, sweepOut, svcOut, dstOut)
	b.heapPeaks = append(b.heapPeaks, float64(b.heap.take())/(1<<20))
	return nil
}

// writeSpans writes the run's spans, one JSON object per line.
func (b *bench) writeSpans() error {
	dir := filepath.Join(buildDir, "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "untraced"
	if b.trace {
		mode = "traced"
	}
	f, err := os.Create(filepath.Join(dir, fmt.Sprintf("%s-seed%d-%s.ndjson", b.w.name, b.seed, mode)))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range b.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// endToEnd computes the end-to-end metrics from the run's series.
func (b *bench) endToEnd() map[string]metric {
	ok, attempted := okFrac(b.outcomes)
	return map[string]metric{
		"setup_s":            {median(b.setup.total), "s"},
		"sweep_trials_per_s": {float64(b.trials) / sum(b.sweep).Seconds(), "1/s"},
		"service_overhead":   {median(pairedRatios(b.svc, b.sweep)), "ratio"},
		"dist_overhead":      {median(pairedRatios(b.dst, b.sweep)), "ratio"},
		"peak_heap_mb":       {median(b.heapPeaks), "MiB"},
		"ok_frac":            {float64(ok) / float64(attempted), "fraction"},
	}
}

func (b *bench) result() *result {
	ok, attempted := okFrac(b.outcomes)
	res := &result{Correct: ok == attempted, Attempted: attempted, Failed: attempted - ok}
	e2e := b.endToEnd()
	if !b.trace {
		res.Metrics = e2e
		return res
	}
	res.Metrics = b.perLayer()
	for k, v := range e2e {
		res.Metrics["traced."+k] = v
	}
	return res
}

// printReport prints every metric with its unit, then the host record,
// ahead of the result line.
func printReport(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	slices.Sort(names)
	for _, k := range names {
		m := res.Metrics[k]
		fmt.Fprintf(w, "%-34s %14.6g %s\n", k, m.Value, m.Unit)
	}
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
}
