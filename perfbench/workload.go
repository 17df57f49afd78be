package main

import (
	"fmt"
	"runtime"
	"time"

	"rcbcast/internal/scenario"
	"rcbcast/internal/sim"
)

// workload is one sweep the benchmark sends through every path, round
// after round. README.md records why each exists.
type workload struct {
	name string
	// scenario is the registry entry; n scales it.
	scenario string
	n        int
	// trials is the sweep size of one round. Jam rounds are a multiple
	// of 8 (one batch-kernel width) and long enough that the per-job
	// fixed costs of the service and dist paths stay near 1% of a
	// path's time.
	trials int
	// probe is the trial prefix the traced run's procs-1 probes (batch
	// kernel, Stream at procs 1, NDJSON encode, topology builds) cover.
	probe int
}

var workloads = []workload{
	{name: "jam-clique", scenario: "full-jam", n: 512, trials: 32, probe: 16},
	{name: "jam-gilbert", scenario: "gilbert-jam", n: 512, trials: 32, probe: 16},
	{name: "benign-many", scenario: "benign", n: 64, trials: 50000, probe: 10000},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// spec renders the workload's scenario as the JSON document every path
// starts from: the sweep path decodes it, the service and dist paths
// submit it.
func (w workload) spec() ([]byte, error) {
	sc, ok := scenario.Lookup(w.scenario)
	if !ok {
		return nil, fmt.Errorf("scenario %q is not in the registry", w.scenario)
	}
	sc.N, sc.K = w.n, 2
	return scenario.Encode(sc)
}

// setupPerRound is how long each round repeats the set-up before its
// paths run. Spreading the repetitions over every round, rather than
// taking them in one burst, lets the median see the whole run's host
// phases. Jam set-ups take microseconds, so a round repeats them
// thousands of times (up to setupMaxReps); a benign-many set-up
// allocates a 50k-trial spec slice and repeats a few dozen times.
const (
	setupPerRound   = 100 * time.Millisecond
	setupMinReps    = 5
	setupMaxReps    = 10000
	specsHeapProbes = 5
)

// setup is the measured set-up every path pays before its first trial.
type setup struct {
	total, decode, specs []float64 // seconds per repetition
	specsHeapB           []float64 // bytes allocated by one TrialSpecs call
}

// keep holds the last spec slice so the compiler cannot drop the call.
var keep []sim.TrialSpec

// measure repeats scenario.Decode of the workload JSON plus
// Scenario.TrialSpecs at full sweep size for about setupPerRound.
func (s *setup) measure(js []byte, trials int, base uint64) error {
	start := time.Now()
	for n := 0; n < setupMinReps || (time.Since(start) < setupPerRound && n < setupMaxReps); n++ {
		t0 := time.Now()
		sc, err := scenario.Decode(js)
		if err != nil {
			return err
		}
		t1 := time.Now()
		keep, err = sc.TrialSpecs(base, 0, trials)
		if err != nil {
			return err
		}
		t2 := time.Now()
		s.decode = append(s.decode, t1.Sub(t0).Seconds())
		s.specs = append(s.specs, t2.Sub(t1).Seconds())
		s.total = append(s.total, t2.Sub(t0).Seconds())
	}
	keep = nil
	return nil
}

// measureHeap records the bytes one TrialSpecs call allocates.
func (s *setup) measureHeap(js []byte, trials int, base uint64) error {
	sc, err := scenario.Decode(js)
	if err != nil {
		return err
	}
	var before, after runtime.MemStats
	for range specsHeapProbes {
		runtime.ReadMemStats(&before)
		keep, err = sc.TrialSpecs(base, 0, trials)
		runtime.ReadMemStats(&after)
		if err != nil {
			return err
		}
		keep = nil
		s.specsHeapB = append(s.specsHeapB, float64(after.TotalAlloc-before.TotalAlloc))
	}
	return nil
}
