package core

import (
	"fmt"

	"comp/internal/interp"
	"comp/internal/minic"
	"comp/internal/pass"
	"comp/internal/runtime"
	"comp/internal/sim/engine"
	"comp/internal/tune"
	"comp/internal/vm"
)

// TuneSource runs the unified cost-model pipeline search (internal/tune)
// for one MiniC program on one simulated platform: extract the workload's
// features, measure one baseline run of the program as written, then let
// the tuner rank candidate (spec, blocks, streams) configurations by
// predicted cost and probe only the top few by simulated execution.
//
// This is the one measurement recipe every entry point shares — compc and
// compsim's -tune flags, the serving layer's tuned plans, and the bench
// harness's tuner-vs-oracle table all call it, so their decisions are
// comparable. key identifies the workload in the tuner's learned model
// (use a stable name, not the source text); setup injects input data
// before each measured run and may be nil.
func TuneSource(t *tune.Tuner, key, src string, cfg runtime.Config, setup func(*interp.Program) error) (tune.Decision, error) {
	f, err := minic.Parse(src)
	if err != nil {
		return tune.Decision{}, fmt.Errorf("tune %s: %w", key, err)
	}
	if err := minic.Check(f).Err(); err != nil {
		return tune.Decision{}, fmt.Errorf("tune %s: %w", key, err)
	}
	feats, err := tune.Extract(f)
	if err != nil {
		return tune.Decision{}, fmt.Errorf("tune %s: features: %w", key, err)
	}
	base, err := tuneProbe(src, cfg, setup)
	if err != nil {
		return tune.Decision{}, fmt.Errorf("tune %s: baseline: %w", key, err)
	}
	d, err := t.Tune(tune.Request{
		Key:      key,
		Workload: feats,
		Baseline: tune.BaselineFromStats(base.Stats, cfg.MIC.LaunchOverhead),
		Platform: cfg,
		Measure: func(c tune.Config) (engine.Duration, error) {
			res, err := TunedRun(src, c, cfg, setup)
			if err != nil {
				return 0, err
			}
			return res.Stats.Time, nil
		},
	})
	if err != nil {
		return tune.Decision{}, fmt.Errorf("tune %s: %w", key, err)
	}
	return d, nil
}

// TunedRun measures one candidate configuration: compile the program under
// the candidate's pipeline spec and block count (the empty spec runs the
// source as written) and execute it on the simulated platform. This is the
// probe the tuner's search spends its budget on, exported so the bench
// harness can replay the exact same measurement exhaustively as the
// oracle sweep.
func TunedRun(src string, c tune.Config, cfg runtime.Config, setup func(*interp.Program) error) (runtime.Result, error) {
	if c.Spec != "" {
		res, err := OptimizeSpec(src, c.Spec, pass.Config{
			Blocks: c.Blocks, ReduceMemory: true, Persistent: true,
		})
		if err != nil {
			return runtime.Result{}, err
		}
		src = res.Source()
	}
	return tuneProbe(src, cfg, setup)
}

// tuneProbe executes one measured run on the VM.
func tuneProbe(src string, cfg runtime.Config, setup func(*interp.Program) error) (runtime.Result, error) {
	p, err := interp.Compile(src)
	if err != nil {
		return runtime.Result{}, err
	}
	if err := vm.Apply(p, ""); err != nil {
		return runtime.Result{}, err
	}
	return runtime.RunWithSetup(p, cfg, setup)
}
