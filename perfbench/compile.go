package main

import (
	"fmt"
	"math/rand"
	"strings"

	"comp/internal/minic"
	"comp/internal/pass"
	"comp/internal/transform"
	"comp/internal/tune"
	"comp/internal/workloads"
)

// compileWorkload compiles every MiniC program in the repository — the
// ten workload sources, their CPU baselines and examples/blackscholes.c —
// under every pipeline spec tune.DefaultSpecs yields for it, streaming
// specs at every transform.DefaultLadder block count. Nothing executes:
// an engine or runtime change must read as no change here.
type compileWorkload struct {
	jobs []compileJob
}

// compileJob is one op: one program through one pipeline.
type compileJob struct {
	program string
	src     string
	spec    string
	cfg     pass.Config
	// golden is the expected remark trail (default pipeline only).
	golden string
}

// compileRoundsPerSecond sizes a run: one round compiles every job once
// and takes about 0.33 s on a 2-core 2.x GHz host.
const compileRoundsPerSecond = 3

func (w *compileWorkload) setup(h *harness) error {
	type program struct{ name, src string }
	var programs []program
	w.jobs = nil
	for _, b := range workloads.All() {
		if b.SharedMem {
			continue
		}
		cpu, err := b.CPUSource()
		if err != nil {
			return fmt.Errorf("%s: cpu baseline: %w", b.Name, err)
		}
		programs = append(programs, program{b.Name, b.Source}, program{b.Name + "/cpu", cpu})
		golden, err := h.readRoot("internal/workloads/testdata/remarks/" + b.Name + ".txt")
		if err != nil {
			return err
		}
		w.jobs = append(w.jobs, compileJob{
			program: b.Name, src: b.Source, spec: pass.DefaultSpec,
			cfg: pass.DefaultConfig(), golden: string(golden),
		})
	}
	example, err := h.readRoot("examples/blackscholes.c")
	if err != nil {
		return err
	}
	programs = append(programs, program{"examples/blackscholes.c", string(example)})
	var srcs []string
	for _, pr := range programs {
		srcs = append(srcs, pr.src)
	}
	if err := warmUp(srcs...); err != nil {
		return err
	}

	for _, pr := range programs {
		f, err := minic.Parse(pr.src)
		if err != nil {
			return fmt.Errorf("%s: %w", pr.name, err)
		}
		if err := minic.Check(f).Err(); err != nil {
			return fmt.Errorf("%s: %w", pr.name, err)
		}
		feats, err := tune.Extract(f)
		if err != nil {
			return fmt.Errorf("%s: features: %w", pr.name, err)
		}
		for _, spec := range tune.DefaultSpecs(feats) {
			ladder := []int{0}
			if strings.Contains(spec, "streaming") {
				ladder = transform.DefaultLadder()
			}
			for _, n := range ladder {
				w.jobs = append(w.jobs, compileJob{
					program: pr.name, src: pr.src, spec: spec,
					cfg: pass.Config{Blocks: n, ReduceMemory: true, Persistent: true},
				})
			}
		}
	}
	return nil
}

func (w *compileWorkload) run(h *harness) error {
	rng := rand.New(rand.NewSource(h.seed))
	for r := h.rounds(compileRoundsPerSecond); r > 0; r-- {
		for _, i := range rng.Perm(len(w.jobs)) {
			job := w.jobs[i]
			var c compiled
			id, err := h.op(func() (err error) {
				c, err = h.p.build(job.src, job.spec, job.cfg)
				return err
			})
			if err == nil && job.golden != "" {
				got := fmt.Sprintf("# %s remarks, pipeline %s\n", job.program, job.spec) + c.remarks.Render()
				if got != job.golden {
					h.fail(id, "%s: remark trail drifted from its golden:\n%s", job.program, got)
				}
			}
		}
	}
	return nil
}

func (w *compileWorkload) close() {}
