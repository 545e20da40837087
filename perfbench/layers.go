package main

import (
	"time"

	"comp/internal/interp"
	"comp/internal/minic"
	"comp/internal/pass"
	"comp/internal/runtime"
	"comp/internal/vm"
)

// probe routes every call the benchmark makes into a layer. With tracing
// off it only makes the call; with tracing on it wraps the call in a span
// and keeps the layer's exact counts.
type probe struct {
	tr     *tracer
	counts map[string]float64
	// shadows are the programs an op executed, re-run engine-only once
	// the op has ended (see flushShadows).
	shadows []shadow
	// shadowTime is the wall time the engine-only re-runs took; it is
	// excluded from the traced run's throughput.
	shadowTime time.Duration
}

type shadow struct {
	src   string
	setup func(*interp.Program) error
}

func newProbe(traced bool) *probe {
	if !traced {
		return &probe{}
	}
	return &probe{tr: newTracer(), counts: map[string]float64{}}
}

func (p *probe) traced() bool { return p.tr != nil }

// count adds to an exact per-layer count (traced runs only).
func (p *probe) count(name string, n float64) {
	if p.tr != nil {
		p.counts[name] += n
	}
}

// timed makes one layer call, inside a span when tracing.
func timed[T any](p *probe, name string, f func() (T, error)) (T, error) {
	if p.tr == nil {
		return f()
	}
	id := p.tr.begin(name)
	v, err := f()
	p.tr.end(id)
	return v, err
}

// do is timed for calls that return only an error.
func do(p *probe, name string, f func() error) error {
	_, err := timed(p, name, func() (struct{}, error) { return struct{}{}, f() })
	return err
}

// compiled is a program ready to run, with the source it was lowered from.
type compiled struct {
	prog    *interp.Program
	src     string
	remarks pass.Remarks
}

// build compiles src the way the CLIs do, with the VM pinned on the
// program: parse, then — unless spec is empty, which runs the source as
// written — check, the pass pipeline, print and re-parse; then lower to
// the closure tree and compile to bytecode.
func (p *probe) build(src, spec string, cfg pass.Config) (compiled, error) {
	f, err := p.parse(src)
	if err != nil {
		return compiled{}, err
	}
	var remarks pass.Remarks
	if spec != "" {
		if err := do(p, "minic.check", func() error { return minic.Check(f).Err() }); err != nil {
			return compiled{}, err
		}
		m, err := timed(p, "pass.parse", func() (*pass.Manager, error) { return pass.Parse(spec, cfg) })
		if err != nil {
			return compiled{}, err
		}
		if remarks, err = timed(p, "pass.run", func() (pass.Remarks, error) { return m.Run(f) }); err != nil {
			return compiled{}, err
		}
		src, _ = timed(p, "minic.print", func() (string, error) { return minic.Print(f), nil })
		if f, err = p.parse(src); err != nil {
			return compiled{}, err
		}
		p.count("minic.calls", 2)
		p.count("pass.calls", 2)
		p.count("pass.applied", float64(len(remarks.Applied())))
	}
	prog, err := timed(p, "interp.lower", func() (*interp.Program, error) { return interp.CompileFile(f) })
	if err != nil {
		return compiled{}, err
	}
	if err := do(p, "vm.compile", func() error { return vm.Apply(prog, vm.ExecVM) }); err != nil {
		return compiled{}, err
	}
	if e, ok := prog.Engine().(*vm.Engine); ok {
		p.count("vm.vecloops", float64(e.Module().VecLoopCount()))
	}
	return compiled{prog: prog, src: src, remarks: remarks}, nil
}

// warmUp compiles each source once, untraced, so lazy initialization and
// the heap's first growth happen in set-up rather than in the first ops.
func warmUp(srcs ...string) error {
	p := newProbe(false)
	for _, src := range srcs {
		if _, err := p.build(src, "", pass.Config{}); err != nil {
			return err
		}
	}
	return nil
}

func (p *probe) parse(src string) (*minic.File, error) {
	f, err := timed(p, "minic.parse", func() (*minic.File, error) { return minic.Parse(src) })
	if err == nil && p.traced() {
		p.count("minic.calls", 1)
		nodes := 0
		minic.Inspect(f, func(minic.Node) bool { nodes++; return true })
		p.count("minic.ast_nodes", float64(nodes))
	}
	return f, err
}

// execute runs a compiled program on a fresh simulated platform, exactly
// as runtime.RunWithSetup does, with the engine run and Finish (the DES
// drain plus the post-run race and deadlock scans) timed apart.
func (p *probe) execute(c compiled, cfg runtime.Config, setup func(*interp.Program) error) (runtime.Result, error) {
	if err := c.prog.Reset(); err != nil {
		return runtime.Result{}, err
	}
	if setup != nil {
		if err := setup(c.prog); err != nil {
			return runtime.Result{}, err
		}
	}
	rt := runtime.New(cfg)
	if err := do(p, "runtime.run", func() error { return c.prog.Run(rt) }); err != nil {
		return runtime.Result{}, err
	}
	st, _ := timed(p, "runtime.finish", func() (runtime.Stats, error) { return rt.Finish(), nil })
	if p.traced() {
		p.count("engine.steps", float64(rt.Sim().Steps()))
		p.count("runtime.transfers", float64(st.Transfers))
		p.count("runtime.kernel_launches", float64(st.KernelLaunches))
		p.shadows = append(p.shadows, shadow{src: c.src, setup: setup})
	}
	return runtime.Result{Stats: st, Program: c.prog, Trace: rt.Trace()}, nil
}

// flushShadows re-runs every program the finished op executed on the
// engine alone, (*interp.Program).Run(interp.NullBackend{}), as root
// "vm.exec" spans. They run outside the op and on fresh program
// instances, so op latencies and the op's own results are untouched.
func (p *probe) flushShadows() error {
	if len(p.shadows) == 0 {
		return nil
	}
	start := time.Now()
	defer func() {
		p.shadows = p.shadows[:0]
		p.shadowTime += time.Since(start)
	}()
	for _, s := range p.shadows {
		f, err := minic.Parse(s.src)
		if err != nil {
			return err
		}
		prog, err := interp.CompileFile(f)
		if err != nil {
			return err
		}
		if err := vm.Apply(prog, vm.ExecVM); err != nil {
			return err
		}
		if err := prog.Reset(); err != nil {
			return err
		}
		if s.setup != nil {
			if err := s.setup(prog); err != nil {
				return err
			}
		}
		if err := do(p, "vm.exec", func() error { return prog.Run(interp.NullBackend{}) }); err != nil {
			return err
		}
	}
	return nil
}
