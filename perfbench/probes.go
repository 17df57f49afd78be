package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"rcbcast/internal/engine"
	"rcbcast/internal/service"
	"rcbcast/internal/sim"
	"rcbcast/internal/sim/sink"
)

// probeSeries holds what the traced run measures per round beyond the
// three paths, one element per round unless noted.
type probeSeries struct {
	ckpt         []time.Duration // StreamCheckpointed at procs = nproc, every trial
	journalBytes int64           // summed journal sizes
	kernelAll    time.Duration   // scalar kernel over every trial, summed
	kernel       []time.Duration // scalar kernel over the probe prefix
	batch8       []time.Duration // batch kernel at width 8 over the prefix
	stream1      []time.Duration // Stream at procs 1 over the prefix
	allocB       []float64       // bytes allocated per scalar trial
	ndjson       time.Duration   // NDJSON.Trial over the prefix, summed
	ndjsonBytes  int64
	build        time.Duration // Spec.Build over the prefix, summed
	energy       int64         // Alice's plus every node's cost, summed
	slots        int64
	prefix       int // trials covered by the prefix probes, summed
}

// trialOptions assembles a spec's engine options exactly as the
// streaming session does for each trial.
func trialOptions(s sim.TrialSpec) engine.Options {
	o := engine.Options{Params: s.Params, Topology: s.Topology, Seed: s.Seed}
	if s.Strategy != nil {
		o.Strategy = s.Strategy()
	}
	if s.Pool != nil {
		o.Pool = s.Pool()
	}
	if s.Configure != nil {
		s.Configure(&o)
	}
	return o
}

// countWriter counts and discards what is written to it.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) { c.n += int64(len(p)); return len(p), nil }

// probe times each layer's public calls on round r's sweep. It also
// runs the byte-identity oracle: every sweep-path line must equal the
// direct scalar kernel's result for that trial, encoded the same way;
// sweepOut records how many did.
func (b *bench) probe(ctx context.Context, r int, base uint64, sweepOut *outcome) error {
	trials := b.w.trials
	specs, err := b.sc.TrialSpecs(base, 0, trials)
	if err != nil {
		return err
	}
	pre := min(b.w.probe, trials)
	p := &b.probes

	// Durability: the sweep path plus the per-trial journal.
	path := filepath.Join(b.root, fmt.Sprintf("probe%d.ckpt", r))
	cp, err := sink.OpenCheckpoint(path)
	if err != nil {
		return err
	}
	d, err := b.timed(r, "sink.checkpointed", func() error {
		return sink.StreamCheckpointed(ctx, b.procs, specs, cp, sink.NewNDJSON(io.Discard))
	})
	if err := cp.Close(); err != nil {
		return err
	}
	if err != nil {
		return err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	p.journalBytes += fi.Size()
	if err := os.Remove(path); err != nil {
		return err
	}
	p.ckpt = append(p.ckpt, d)

	// Kernel and oracle: scalar RunContext with one reused scratch.
	chk := newLineCheck(b.ref.Bytes())
	enc := sink.NewNDJSON(chk)
	kept := make([]*engine.Result, 0, pre)
	var all, prefix time.Duration
	var before, after runtime.MemStats
	_, err = b.timed(r, "engine.scalar", func() error {
		scratch := engine.NewScratch()
		runtime.ReadMemStats(&before)
		for i, s := range specs {
			opts := trialOptions(s)
			opts.Scratch = scratch
			t := time.Now()
			res, err := engine.RunContext(ctx, opts)
			d := time.Since(t)
			if err != nil {
				return err
			}
			all += d
			if i < pre {
				prefix += d
				kept = append(kept, res)
			}
			p.energy += res.Alice.Cost
			for _, c := range res.NodeCosts {
				p.energy += c
			}
			p.slots += res.SlotsSimulated
			if err := enc.Trial(i, res); err != nil {
				return err
			}
		}
		runtime.ReadMemStats(&after)
		return nil
	})
	if err != nil {
		return err
	}
	sweepOut.identical = chk.outcome(trials).ok()
	p.kernelAll += all
	p.kernel = append(p.kernel, prefix)
	p.allocB = append(p.allocB, float64(after.TotalAlloc-before.TotalAlloc)/float64(trials))

	// Batch kernel at width 8 over the same prefix.
	d, err = b.timed(r, "engine.batch8", func() error {
		bs := engine.NewBatchScratch()
		for g := 0; g < pre; g += 8 {
			opts := make([]engine.Options, 0, 8)
			for _, s := range specs[g:min(g+8, pre)] {
				opts = append(opts, trialOptions(s))
			}
			if _, err := engine.RunBatchContext(ctx, opts, bs); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.batch8 = append(p.batch8, d)

	// Session: Stream at procs 1 into a discarding sink.
	d, err = b.timed(r, "sim.stream1", func() error {
		return sim.Stream(ctx, 1, specs[:pre], sink.Func(func(int, *engine.Result) error { return nil }))
	})
	if err != nil {
		return err
	}
	p.stream1 = append(p.stream1, d)

	// Encoding: NDJSON.Trial over the retained results.
	cw := &countWriter{}
	nd := sink.NewNDJSON(cw)
	d, err = b.timed(r, "sink.ndjson", func() error {
		for i, res := range kept {
			if err := nd.Trial(i, res); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.ndjson += d
	p.ndjsonBytes += cw.n

	// Topology: one build per trial seed, as each trial's run does.
	d, err = b.timed(r, "topology.build", func() error {
		for _, s := range specs[:pre] {
			if _, err := s.Topology.Build(b.w.n, s.Seed); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.build += d
	p.prefix += pre
	return nil
}

// serviceCounts sums rejected submits and failed jobs over every
// server of the run.
func (r *rig) serviceCounts() (rejected int64, failed int) {
	for _, s := range append([]*server{r.service}, r.workers...) {
		m := s.m.Metrics()
		rejected += m.Rejected
		failed += m.Jobs[service.StateFailed]
	}
	return rejected, failed
}

// perLayer computes the traced run's per-layer metrics. README.md maps
// each to the end-to-end metric it should move.
func (b *bench) perLayer() map[string]metric {
	p := b.probes
	trials := float64(b.trials)
	rounds := len(b.sweep)
	roundTrials := b.w.trials
	roundPre := min(b.w.probe, roundTrials)
	pre := float64(p.prefix)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

	scaling := make([]float64, rounds)
	for i := range scaling {
		perTrial1 := float64(p.stream1[i]) / float64(roundPre)
		perTrialN := float64(b.sweep[i]) / float64(roundTrials)
		scaling[i] = perTrial1 / perTrialN
	}
	shards := make([]float64, len(b.distShards))
	for i, n := range b.distShards {
		shards[i] = float64(n)
	}

	t := b.rig.tap
	submitP50, firstP50 := median(t.submitMs), median(t.firstMs)
	submitTail, tailPct, ok := tail(t.submitMs)
	firstTail, _, _ := tail(t.firstMs)
	if !ok {
		// Too few samples for a tail with ten beyond it: report the
		// maximum and say so through tail_pct = 100.
		submitTail, firstTail, tailPct = slicesMax(t.submitMs), slicesMax(t.firstMs), 100
	}

	steal, busy := b.hostStart.shares(b.hostEnd)
	m := map[string]metric{
		"scenario.decode_us":              {median(b.setup.decode) * 1e6, "us"},
		"scenario.specs_ns_per_trial":     {median(b.setup.specs) * 1e9 / float64(roundTrials), "ns"},
		"scenario.specs_heap_b_per_trial": {median(b.setup.specsHeapB) / float64(roundTrials), "B"},
		"topology.build_ms":               {float64(p.build) / float64(time.Millisecond) / pre, "ms"},
		"engine.scalar_ms_per_trial":      {float64(p.kernelAll) / float64(time.Millisecond) / trials, "ms"},
		"engine.batch8_ms_per_trial":      {float64(sum(p.batch8)) / float64(time.Millisecond) / pre, "ms"},
		"engine.batch_gain":               {median(pairedRatios(p.kernel, p.batch8)), "ratio"},
		"engine.energy_per_trial":         {float64(p.energy) / trials, "slots"},
		"engine.slots_per_trial":          {float64(p.slots) / trials, "slots"},
		"engine.alloc_b_per_trial":        {median(p.allocB), "B"},
		"sim.self_us_per_trial":           {median(pairedExcessUs(p.stream1, p.kernel, roundPre)), "us"},
		"sim.procs_scaling":               {median(scaling), "ratio"},
		"sink.ndjson_us_per_trial":        {us(p.ndjson) / pre, "us"},
		"sink.ndjson_bytes_per_trial":     {float64(p.ndjsonBytes) / pre, "B"},
		"sink.journal_us_per_trial":       {median(pairedExcessUs(p.ckpt, b.sweep, roundTrials)), "us"},
		"sink.journal_bytes_per_trial":    {float64(p.journalBytes) / trials, "B"},
		"service.submit_ms.p50":           {submitP50, "ms"},
		"service.submit_ms.tail":          {submitTail, "ms"},
		"service.first_line_ms.p50":       {firstP50, "ms"},
		"service.first_line_ms.tail":      {firstTail, "ms"},
		"service.jobs_timed":              {float64(len(t.submitMs)), "count"},
		"service.tail_pct":                {tailPct, "%"},
		"service.self_us_per_trial":       {median(pairedExcessUs(b.svc, p.ckpt, roundTrials)), "us"},
		"service.http_bytes_per_trial":    {float64(t.bodyBytes) / (2 * trials), "B"},
		"service.rejected":                {float64(b.rejected), "count"},
		"service.failed":                  {float64(b.failedJobs), "count"},
		"service.trials_per_s":            {trials / sum(b.svc).Seconds(), "1/s"},
		"dist.self_us_per_trial":          {median(pairedExcessUs(b.dst, b.svc, roundTrials)), "us"},
		"dist.shards":                     {median(shards), "count"},
		"dist.retries":                    {float64(b.distRetries), "count"},
		"dist.window_peak":                {float64(b.distWindowPeak), "count"},
		"dist.trials_per_s":               {trials / sum(b.dst).Seconds(), "1/s"},
		"host.steal_frac":                 {steal, "fraction"},
		"host.cpu":                        {busy, "fraction"},
		"host.gomaxprocs":                 {float64(runtime.GOMAXPROCS(0)), "count"},
	}
	return m
}

func sum(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

func slicesMax(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
