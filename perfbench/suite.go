package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"comp/internal/pass"
	"comp/internal/runtime"
	"comp/internal/workloads"
)

// goldenTuneRow is the part of a BENCH_tune.json row the checks use.
type goldenTuneRow struct {
	Name    string `json:"name"`
	Spec    string `json:"spec"`
	Blocks  int    `json:"blocks"`
	Probes  int    `json:"probes"`
	TunedNs int64  `json:"tuned_ns"`
}

// readTuneGolden loads BENCH_tune.json's rows by workload name.
func readTuneGolden(h *harness) (map[string]goldenTuneRow, error) {
	data, err := h.readRoot("BENCH_tune.json")
	if err != nil {
		return nil, err
	}
	var rep struct {
		Rows []goldenTuneRow `json:"workloads"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("BENCH_tune.json: %w", err)
	}
	rows := map[string]goldenTuneRow{}
	for _, r := range rep.Rows {
		rows[r.Name] = r
	}
	return rows, nil
}

// suiteWorkload runs the paper's evaluation shape on the simulator: each
// MiniC workload as its CPU baseline, as MIC-naive, and as MIC-optimized
// at its committed BENCH_tune.json (spec, blocks); ferret and freqmine
// under MYO and under COMP's segments. Engine execution is most of the
// host time here and the post-run scans little.
type suiteWorkload struct {
	runs []suiteRun
	// ref holds each MiniC workload's CPU-baseline run, made in set-up.
	// Every op is checked against it as soon as it ends, so no op's
	// program outlives the op.
	ref map[string]runtime.Result
}

type suiteRun struct {
	b       *workloads.Benchmark
	variant string // cpu, naive, tuned, myo or comp
	src     string
	spec    string
	cfg     pass.Config
	tunedNs int64
}

// suiteRoundsPerSecond sizes a run: one round runs every variant once and
// takes about 8 s on a 2-core 2.x GHz host.
const suiteRoundsPerSecond = 0.125

func (w *suiteWorkload) setup(h *harness) error {
	golden, err := readTuneGolden(h)
	if err != nil {
		return err
	}
	w.runs, w.ref = nil, map[string]runtime.Result{}
	p := newProbe(false)
	for _, b := range workloads.All() {
		if b.SharedMem {
			w.runs = append(w.runs, suiteRun{b: b, variant: "myo"}, suiteRun{b: b, variant: "comp"})
			continue
		}
		row, ok := golden[b.Name]
		if !ok || row.TunedNs == 0 {
			return fmt.Errorf("BENCH_tune.json has no tuned row for %s", b.Name)
		}
		cpu, err := b.CPUSource()
		if err != nil {
			return fmt.Errorf("%s: cpu baseline: %w", b.Name, err)
		}
		c, err := p.build(cpu, "", pass.Config{})
		if err != nil {
			return fmt.Errorf("%s: cpu baseline: %w", b.Name, err)
		}
		if w.ref[b.Name], err = p.execute(c, platform(b), b.Setup); err != nil {
			return fmt.Errorf("%s: cpu baseline: %w", b.Name, err)
		}
		w.runs = append(w.runs,
			suiteRun{b: b, variant: "cpu", src: cpu},
			suiteRun{b: b, variant: "naive", src: b.Source},
			suiteRun{b: b, variant: "tuned", src: b.Source, spec: row.Spec,
				cfg:     pass.Config{Blocks: row.Blocks, ReduceMemory: true, Persistent: true},
				tunedNs: row.TunedNs})
	}
	var srcs []string
	for _, r := range w.runs {
		if r.src != "" {
			srcs = append(srcs, r.src)
		}
	}
	return warmUp(srcs...)
}

// platform is the simulated machine a workload's programs run on, as
// workloads.Benchmark.Prepare configures it.
func platform(b *workloads.Benchmark) runtime.Config {
	cfg := runtime.DefaultConfig()
	if b.CPUThreads > 0 {
		cfg.CPUThreads = b.CPUThreads
	}
	return cfg
}

// suiteOutcome is one op's result.
type suiteOutcome struct {
	res     runtime.Result
	shared  workloads.SharedResult
	refused bool
}

func (w *suiteWorkload) run(h *harness) error {
	rng := rand.New(rand.NewSource(h.seed))
	first := map[int]time.Duration{} // each run's simulated makespan, first seen
	for r := h.rounds(suiteRoundsPerSecond); r > 0; r-- {
		for _, i := range rng.Perm(len(w.runs)) {
			run := w.runs[i]
			var o suiteOutcome
			id, err := h.op(func() error { return w.exec(h, run, &o) })
			if err != nil {
				continue
			}
			if err := w.check(run, o); err != nil {
				h.fail(id, "%s %s: %v", run.b.Name, run.variant, err)
				continue
			}
			sim := time.Duration(o.res.Stats.Time) + time.Duration(o.shared.Time)
			if want, seen := first[i]; !seen {
				first[i] = sim
			} else if sim != want {
				h.fail(id, "%s %s: simulated makespan %d differs from the first run's %d", run.b.Name, run.variant, sim, want)
			}
		}
	}
	for i, run := range w.runs {
		if t, ok := first[i]; ok && run.variant == "tuned" {
			h.speedups = append(h.speedups, float64(w.ref[run.b.Name].Stats.Time)/float64(t))
		}
	}
	return nil
}

// exec runs one variant.
func (w *suiteWorkload) exec(h *harness, run suiteRun, o *suiteOutcome) error {
	switch run.variant {
	case "myo", "comp":
		mech, span := workloads.MechCOMP, "shmem.run"
		if run.variant == "myo" {
			mech, span = workloads.MechMYO, "myo.run"
		}
		res, err := timed(h.p, span, func() (workloads.SharedResult, error) {
			return workloads.RunShared(run.b, mech, 1.0)
		})
		if err != nil && run.variant == "myo" && run.b.Name == "ferret" {
			// Table III: ferret's full input exceeds MYO's allocation cap.
			o.refused = true
			return nil
		}
		o.shared = res
		return err
	}
	c, err := h.p.build(run.src, run.spec, run.cfg)
	if err != nil {
		return err
	}
	o.res, err = h.p.execute(c, platform(run.b), run.b.Setup)
	return err
}

// check verifies one op: its outputs equal the CPU baseline's, a tuned
// makespan equals BENCH_tune.json, and MYO refuses ferret and nothing
// else.
func (w *suiteWorkload) check(run suiteRun, o suiteOutcome) error {
	switch run.variant {
	case "myo", "comp":
		if want := run.variant == "myo" && run.b.Name == "ferret"; o.refused != want {
			return fmt.Errorf("refused=%v, Table III expects %v", o.refused, want)
		}
		return nil
	}
	if err := run.b.CompareOutputs(w.ref[run.b.Name], o.res); err != nil {
		return fmt.Errorf("outputs differ from the CPU baseline: %w", err)
	}
	if run.variant == "tuned" && int64(o.res.Stats.Time) != run.tunedNs {
		return fmt.Errorf("makespan %d ns, BENCH_tune.json says %d", o.res.Stats.Time, run.tunedNs)
	}
	return nil
}

func (w *suiteWorkload) close() {}
