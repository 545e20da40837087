// Package workloads re-creates the paper's 12-benchmark evaluation suite
// (Table II: PARSEC blackscholes/streamcluster/ferret/dedup/freqmine,
// Phoenix kmeans, NAS CG, Rodinia cfd/nn/srad/bfs/hotspot).
//
// Ten benchmarks are expressed as MiniC programs: the same offload-
// annotated source the paper's compiler consumes, sized and calibrated so
// the simulated platform reproduces the paper's ratios (transfer:compute
// per Figure 4, per-optimization speedups per Table II). The two
// pointer-structure benchmarks (ferret, freqmine) drive the §V shared-
// memory substrate directly and live in sharedmem.go.
//
// Each Benchmark carries its CPU baseline (offload pragmas stripped), its
// naive MIC version (the source as written), input generators with a fixed
// seed, the output arrays used for equivalence checking, and the set of
// optimizations Table II credits it with.
package workloads

import (
	"fmt"
	"math/rand"
	"sort"

	"comp/internal/core"
	"comp/internal/interp"
	"comp/internal/minic"
	"comp/internal/runtime"
	"comp/internal/vm"
)

// Benchmark is one member of the evaluation suite.
type Benchmark struct {
	// Name and Suite as in Table II.
	Name  string
	Suite string
	// InputDesc mirrors Table II's input column (scaled sizes; see the
	// calibration note in internal/sim/machine/params.go).
	InputDesc string
	// Source is the offload-annotated MiniC program (the "MIC version").
	// Empty for the shared-memory benchmarks.
	Source string
	// CPUOverride, when non-empty, is used as the CPU baseline instead of
	// stripping pragmas from Source (needed when the MIC source is
	// hand-pipelined, like dedup, and references device buffers).
	CPUOverride string
	// Setup injects generated input data after Reset.
	Setup func(p *interp.Program) error
	// Outputs lists the global arrays compared for equivalence.
	Outputs []string
	// Optimizations Table II credits this benchmark with. Keys:
	// "streaming", "merging", "regularization", "sharedmem".
	Applicable []string
	// CPUThreads overrides the default 4 (dedup uses 5, ferret 6, §VI).
	CPUThreads int
	// SharedMem marks the §V benchmarks (ferret, freqmine).
	SharedMem bool
	// Shared describes the pointer-structure workload for SharedMem
	// benchmarks.
	Shared *SharedWorkload
}

// Has reports whether the benchmark is credited with an optimization.
func (b *Benchmark) Has(opt string) bool {
	for _, o := range b.Applicable {
		if o == opt {
			return true
		}
	}
	return false
}

// CPUSource returns the OpenMP-only baseline: the MIC source with every
// offload-related pragma removed (or the explicit CPU override).
func (b *Benchmark) CPUSource() (string, error) {
	if b.CPUOverride != "" {
		return b.CPUOverride, nil
	}
	f, err := minic.Parse(b.Source)
	if err != nil {
		return "", err
	}
	StripOffload(f)
	return minic.Print(f), nil
}

// StripOffload removes offload, offload_transfer and offload_wait pragmas
// from a file, leaving the plain OpenMP program.
func StripOffload(f *minic.File) {
	minic.Inspect(f, func(n minic.Node) bool {
		switch x := n.(type) {
		case *minic.ForStmt:
			var kept []*minic.Pragma
			for _, p := range x.Pragmas {
				if p.Kind == minic.PragmaOmpParallelFor {
					kept = append(kept, p)
				}
			}
			x.Pragmas = kept
		case *minic.Block:
			var kept []minic.Stmt
			for _, s := range x.Stmts {
				if ps, ok := s.(*minic.PragmaStmt); ok {
					switch ps.P.Kind {
					case minic.PragmaOffloadTransfer, minic.PragmaOffloadWait:
						continue
					}
				}
				kept = append(kept, s)
			}
			x.Stmts = kept
		}
		return true
	})
}

// registry, populated by each benchmark file's init.
var registry = map[string]*Benchmark{}

func register(b *Benchmark) {
	if _, dup := registry[b.Name]; dup {
		panic("workloads: duplicate benchmark " + b.Name)
	}
	registry[b.Name] = b
}

// All returns the suite in the paper's Table II order.
var tableOrder = []string{
	"blackscholes", "streamcluster", "ferret", "dedup", "freqmine",
	"kmeans", "cg", "cfd", "nn", "srad", "bfs", "hotspot",
}

// All returns every benchmark in Table II order.
func All() []*Benchmark {
	out := make([]*Benchmark, 0, len(registry))
	for _, name := range tableOrder {
		if b, ok := registry[name]; ok {
			out = append(out, b)
		}
	}
	// Append any extras deterministically (should be none).
	var extra []string
	for name := range registry {
		found := false
		for _, n := range tableOrder {
			if n == name {
				found = true
			}
		}
		if !found {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		out = append(out, registry[name])
	}
	return out
}

// Get returns a benchmark by name.
func Get(name string) (*Benchmark, error) {
	b, ok := registry[name]
	if !ok {
		return nil, fmt.Errorf("workloads: unknown benchmark %q", name)
	}
	return b, nil
}

// Variant selects how a MiniC benchmark runs.
type Variant int

// Variants.
const (
	// CPU runs the OpenMP baseline on the host model.
	CPU Variant = iota
	// MICNaive offloads the parallel loops as written.
	MICNaive
	// MICOptimized applies the given core options first.
	MICOptimized
)

// RunOptions configures one benchmark execution.
type RunOptions struct {
	Variant Variant
	// Opt configures the compiler for MICOptimized.
	Opt core.Options
	// Passes, when non-empty, overrides Opt's pass selection with an explicit
	// pipeline spec (e.g. "merge,streaming"); Opt still supplies the block
	// count and streaming knobs. See pass.ParseSpec for the grammar.
	Passes string
	// Config overrides the platform (zero value = DefaultConfig).
	Config *runtime.Config
	// Exec picks the execution engine for the compiled program (see
	// vm.Apply): "" or vm.ExecVM compiles it to bytecode with the columnar
	// batch tier, vm.ExecInterp keeps the tree-walker.
	Exec string
}

// Run executes a MiniC benchmark variant and returns its result.
func (b *Benchmark) Run(ro RunOptions) (runtime.Result, error) {
	p, cfg, err := b.Prepare(ro)
	if err != nil {
		return runtime.Result{}, err
	}
	return runtime.RunWithSetup(p, cfg, b.Setup)
}

// Prepare compiles a benchmark variant without executing it, returning the
// program and the effective platform config. The stream scheduler uses it
// to build one fresh program per request (each request needs its own
// instance) and the autotuner to recompile at each probed block count.
func (b *Benchmark) Prepare(ro RunOptions) (*interp.Program, runtime.Config, error) {
	if b.SharedMem {
		return nil, runtime.Config{}, fmt.Errorf("workloads: %s is a shared-memory benchmark; use RunShared", b.Name)
	}
	src := b.Source
	switch ro.Variant {
	case CPU:
		s, err := b.CPUSource()
		if err != nil {
			return nil, runtime.Config{}, err
		}
		src = s
	case MICOptimized:
		var res *core.Result
		var err error
		if ro.Passes != "" {
			res, err = core.OptimizeSpec(b.Source, ro.Passes, ro.Opt.PassConfig())
		} else {
			res, err = core.Optimize(b.Source, ro.Opt)
		}
		if err != nil {
			return nil, runtime.Config{}, fmt.Errorf("%s: optimize: %w", b.Name, err)
		}
		src = res.Source()
	}
	p, err := interp.Compile(src)
	if err != nil {
		return nil, runtime.Config{}, fmt.Errorf("%s: compile: %w\n%s", b.Name, err, src)
	}
	if err := vm.Apply(p, ro.Exec); err != nil {
		return nil, runtime.Config{}, fmt.Errorf("%s: %w", b.Name, err)
	}
	cfg := runtime.DefaultConfig()
	if ro.Config != nil {
		cfg = *ro.Config
	}
	if b.CPUThreads > 0 {
		cfg.CPUThreads = b.CPUThreads
	}
	return p, cfg, nil
}

// OptimizeReport runs the compiler over the benchmark source and returns
// the report (used by Table II's applicability columns).
func (b *Benchmark) OptimizeReport(opt core.Options) (*core.Result, error) {
	return core.Optimize(b.Source, opt)
}

// seededRand returns a deterministic generator per benchmark+stream.
func seededRand(name string, stream int64) *rand.Rand {
	var h int64
	for _, c := range name {
		h = h*131 + int64(c)
	}
	return rand.New(rand.NewSource(h*1000003 + stream))
}

// setArray injects float data into a program global.
func setArray(p *interp.Program, name string, data []float64) error {
	return p.SetArray(name, data)
}

// uniform fills n values in [lo, hi).
func uniform(r *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + r.Float64()*(hi-lo)
	}
	return out
}

// permutedIndices returns n random indices in [0, max).
func permutedIndices(r *rand.Rand, n, max int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(r.Intn(max))
	}
	return out
}

// CompareOutputs checks that two runs produced identical output arrays.
func (b *Benchmark) CompareOutputs(a, c runtime.Result) error {
	for _, name := range b.Outputs {
		x, err := a.Program.ArrayData(name)
		if err != nil {
			return err
		}
		y, err := c.Program.ArrayData(name)
		if err != nil {
			return err
		}
		if len(x) != len(y) {
			return fmt.Errorf("%s: output %s length %d vs %d", b.Name, name, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				return fmt.Errorf("%s: output %s[%d] = %v vs %v", b.Name, name, i, x[i], y[i])
			}
		}
	}
	return nil
}
