package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	goruntime "runtime"

	"comp/internal/minic"
	"comp/internal/pass"
	"comp/internal/runtime"
	"comp/internal/sim/engine"
	"comp/internal/sim/machine"
	"comp/internal/tune"
	"comp/internal/workloads"
)

// tuneWorkload replays rows of BENCH_tune.json through
// tune.Tuner.Tune with the benchmark's own Measure, which compiles each
// candidate through the pass manager and runs it with the VM pinned. A row
// is one workload's three decisions, each with a fresh Tuner sharing one
// model: a cold decision, a warm repeat, and the held-out xeon-phi-3120.
// Probes run streamed programs at up to 50 blocks, where the post-run
// race scan dominates host time.
//
// BENCH_tune.json trains one model across the rows in Table II order, so
// a row's decisions depend on the rows before it. Each row here starts
// from the samples those rows left in TUNE_model.json, which makes rows
// independent: a run deals them in a seeded order, and every row still
// sees the model it sees in BENCH_tune.json.
type tuneWorkload struct {
	golden map[string]goldenTuneRow
	// committed is TUNE_model.json: the model the full sequence trains.
	committed *tune.Model
	// order is the Table II position of each MiniC workload.
	order map[string]int
}

// tuneDeck is one round: cg, the race-scan-heavy row, once, and the other
// rows four times so that each cheap decision has several samples. The
// cold decisions of streamcluster and cfd take 40–50 s each, more than a
// run holds, and hotspot's are pure engine time, so those rows are left
// out.
var tuneDeck = append([]string{"cg"}, repeat(4,
	"blackscholes", "dedup", "kmeans", "nn", "srad", "bfs")...)

func repeat(n int, names ...string) []string {
	var out []string
	for ; n > 0; n-- {
		out = append(out, names...)
	}
	return out
}

// tuneRoundsPerSecond sizes a run: one round deals the whole deck and
// takes about 30 s on a 2-core 2.x GHz host, so a 20 s run is one round.
const tuneRoundsPerSecond = 0.035

func (w *tuneWorkload) setup(h *harness) error {
	golden, err := readTuneGolden(h)
	if err != nil {
		return err
	}
	data, err := h.readRoot("TUNE_model.json")
	if err != nil {
		return err
	}
	committed := tune.NewModel()
	if err := json.Unmarshal(data, committed); err != nil {
		return fmt.Errorf("TUNE_model.json: %w", err)
	}
	w.golden, w.committed, w.order = golden, committed, map[string]int{}
	for i, b := range workloads.All() {
		w.order[b.Name] = i
	}
	var srcs []string
	for _, name := range tuneDeck {
		b, err := workloads.Get(name)
		if err != nil {
			return err
		}
		srcs = append(srcs, b.Source)
	}
	return warmUp(srcs...)
}

// tunePhases are the three decisions BENCH_tune.json makes per workload.
var tunePhases = []struct {
	name string
	mic  func() machine.Config
}{
	{"cold", machine.XeonPhi},
	{"warm", machine.XeonPhi},
	{"held-out", machine.XeonPhi3120},
}

// trained returns the committed samples of the workloads before name in
// Table II order, or up to and including it.
func (w *tuneWorkload) trained(name string, including bool) *tune.Model {
	m := tune.NewModel()
	for _, s := range w.committed.Samples {
		if pos := w.order[s.Key]; pos < w.order[name] || (including && s.Key == name) {
			m.Observe(s)
		}
	}
	return m
}

func (w *tuneWorkload) run(h *harness) error {
	rng := rand.New(rand.NewSource(h.seed))
	warm, warmZero := 0, 0
	for r := h.rounds(tuneRoundsPerSecond); r > 0; r-- {
		for _, i := range rng.Perm(len(tuneDeck)) {
			b, err := workloads.Get(tuneDeck[i])
			if err != nil {
				return err
			}
			model := w.trained(b.Name, false)
			// Start every row from a collected heap, so no row pays for
			// the garbage of the row dealt before it.
			goruntime.GC()
			var ops []int
			for _, ph := range tunePhases {
				var d tune.Decision
				id, err := h.op(func() (err error) {
					d, err = decide(h.p, &tune.Tuner{Model: model}, b, ph.mic())
					return err
				})
				ops = append(ops, id)
				if err != nil {
					continue
				}
				if ph.name == "warm" {
					warm++
					if d.Probes == 0 {
						warmZero++
					}
				}
				if err := checkDecision(ph.name, w.golden[b.Name], d); err != nil {
					h.fail(id, "%s %s: %v", b.Name, ph.name, err)
				}
			}
			if err := sameModel(model, w.trained(b.Name, true)); err != nil {
				for _, id := range ops {
					h.fail(id, "%s: %v", b.Name, err)
				}
			}
		}
	}
	if warm > 0 {
		h.layer["tune.warm_zero_probe_ratio"] = float64(warmZero) / float64(warm)
	}
	return nil
}

// checkDecision holds a decision to BENCH_tune.json: a cold decision
// matches the row exactly, a warm repeat spends no probe, and the
// held-out machine at most two.
func checkDecision(phase string, row goldenTuneRow, d tune.Decision) error {
	switch {
	case phase == "cold" && (d.Spec != row.Spec || d.Blocks != row.Blocks || d.Probes != row.Probes || d.MeasuredNs != row.TunedNs):
		return fmt.Errorf("decided (%q, %d blocks, %d probes, %d ns), BENCH_tune.json says (%q, %d, %d, %d)",
			d.Spec, d.Blocks, d.Probes, d.MeasuredNs, row.Spec, row.Blocks, row.Probes, row.TunedNs)
	case phase == "warm" && d.Probes != 0:
		return fmt.Errorf("spent %d probes, want 0", d.Probes)
	case phase == "held-out" && d.Probes > 2:
		return fmt.Errorf("spent %d probes, want at most 2", d.Probes)
	}
	return nil
}

// decide is one tuning decision, the recipe core.TuneSource follows with
// the engine pinned: features from the checked source, one baseline run
// of the program as written, then the tuner's search.
func decide(p *probe, t *tune.Tuner, b *workloads.Benchmark, mic machine.Config) (tune.Decision, error) {
	cfg := runtime.DefaultConfig()
	cfg.MIC = mic
	cfg.DisableTrace = true
	if b.CPUThreads > 0 {
		cfg.CPUThreads = b.CPUThreads
	}
	f, err := p.parse(b.Source)
	if err != nil {
		return tune.Decision{}, err
	}
	if err := do(p, "minic.check", func() error { return minic.Check(f).Err() }); err != nil {
		return tune.Decision{}, err
	}
	p.count("minic.calls", 1)
	feats, err := tune.Extract(f)
	if err != nil {
		return tune.Decision{}, err
	}
	c, err := p.build(b.Source, "", pass.Config{})
	if err != nil {
		return tune.Decision{}, err
	}
	base, err := p.execute(c, cfg, b.Setup)
	if err != nil {
		return tune.Decision{}, fmt.Errorf("%s baseline: %w", b.Name, err)
	}
	d, err := timed(p, "tune.tune", func() (tune.Decision, error) {
		return t.Tune(tune.Request{
			Key:      b.Name,
			Workload: feats,
			Baseline: tune.BaselineFromStats(base.Stats, cfg.MIC.LaunchOverhead),
			Platform: cfg,
			Measure: func(tc tune.Config) (engine.Duration, error) {
				return timed(p, "tune.measure", func() (engine.Duration, error) {
					c, err := p.build(b.Source, tc.Spec, pass.Config{Blocks: tc.Blocks, ReduceMemory: true, Persistent: true})
					if err != nil {
						return 0, err
					}
					res, err := p.execute(c, cfg, b.Setup)
					return res.Stats.Time, err
				})
			},
		})
	})
	if err != nil {
		return tune.Decision{}, fmt.Errorf("%s: %w", b.Name, err)
	}
	p.count("tune.probes", float64(d.Probes))
	return d, nil
}

// sameModel reports whether the trained model equals the committed one.
func sameModel(got, want *tune.Model) error {
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("trained model differs from TUNE_model.json's")
	}
	return nil
}

func (w *tuneWorkload) close() {}
