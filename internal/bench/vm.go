package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"
	"time"

	"comp/internal/interp"
	"comp/internal/vm"
	"comp/internal/workloads"
)

// The VM report is the bytecode engine's perf artifact: for every MiniC
// workload it measures the wall-clock of a full run (Reset + Setup + Run
// against a null backend, so only engine execution is on the clock) under
// the tree-walker and under the scalar VM (vm.NewEngine: bytecode with
// the columnar batch tier off, so the ratio is interpreter vs bytecode;
// BENCH_columnar.json measures the tier). compbench -vmbench writes it as
// BENCH_vm.json; the CI guard holds the per-workload speedup ratio, which
// is machine-relative, to within tolerance of the committed file.

// VMRow is one workload's line.
type VMRow struct {
	Name string `json:"name"`
	// Note marks workloads the engines cannot run ("n/a shared-memory").
	Note string `json:"note,omitempty"`
	// Best-of-N wall-clock of one full run per engine.
	InterpNs int64 `json:"interp_ns,omitempty"`
	VMNs     int64 `json:"vm_ns,omitempty"`
	// Speedup is InterpNs/VMNs (>1 means the VM is faster).
	Speedup float64 `json:"speedup,omitempty"`
}

// VMReport aggregates the per-workload rows.
type VMReport struct {
	Iters int     `json:"iters"`
	Rows  []VMRow `json:"workloads"`
	// GeomeanSpeedup is the geometric-mean interp/vm ratio over measured
	// rows.
	GeomeanSpeedup float64 `json:"geomean_speedup"`
}

// timeRun measures the best-of-iters wall-clock of a full execution of the
// prepared program.
func timeRun(p *interp.Program, setup func(*interp.Program) error, iters int) (int64, error) {
	best := int64(math.MaxInt64)
	for i := 0; i < iters; i++ {
		start := time.Now()
		if err := p.Reset(); err != nil {
			return 0, err
		}
		if setup != nil {
			if err := setup(p); err != nil {
				return 0, err
			}
		}
		if err := p.Run(interp.NullBackend{}); err != nil {
			return 0, err
		}
		if d := time.Since(start).Nanoseconds(); d < best {
			best = d
		}
	}
	return best, nil
}

// attachScalarVM compiles p to bytecode with the columnar batch tier off:
// the scalar engine both reports measure against.
func attachScalarVM(p *interp.Program) (*vm.Engine, error) {
	e, err := vm.NewEngine(p)
	if err != nil {
		return nil, err
	}
	p.SetEngine(e)
	return e, nil
}

// VMBenchmark measures one workload under the tree-walker and the scalar
// VM.
func (r *Runner) VMBenchmark(b *workloads.Benchmark, iters int) (VMRow, error) {
	if b.SharedMem {
		return VMRow{Name: b.Name, Note: "n/a shared-memory"}, nil
	}
	row := VMRow{Name: b.Name}
	for _, scalar := range []bool{false, true} {
		p, _, err := b.Prepare(workloads.RunOptions{Variant: workloads.MICNaive, Exec: vm.ExecInterp})
		if err != nil {
			return row, err
		}
		if scalar {
			if _, err := attachScalarVM(p); err != nil {
				return row, err
			}
		}
		ns, err := timeRun(p, b.Setup, iters)
		if err != nil {
			return row, fmt.Errorf("run (scalar VM %v): %w", scalar, err)
		}
		if scalar {
			row.VMNs = ns
		} else {
			row.InterpNs = ns
		}
	}
	row.Speedup = float64(row.InterpNs) / float64(row.VMNs)
	return row, nil
}

// VMBench measures every workload. iters <= 0 defaults to 3.
func (r *Runner) VMBench(iters int) (*VMReport, error) {
	if iters <= 0 {
		iters = 3
	}
	rep := &VMReport{Iters: iters}
	logSum, n := 0.0, 0
	for _, b := range workloads.All() {
		row, err := r.VMBenchmark(b, iters)
		if err != nil {
			return nil, fmt.Errorf("vmbench %s: %w", b.Name, err)
		}
		rep.Rows = append(rep.Rows, row)
		if row.Note == "" {
			logSum += math.Log(row.Speedup)
			n++
		}
	}
	if n > 0 {
		rep.GeomeanSpeedup = math.Exp(logSum / float64(n))
	}
	return rep, nil
}

// WriteJSON emits the report as indented JSON (BENCH_vm.json).
func (rep *VMReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// Format renders the report as an aligned text table.
func (rep *VMReport) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "bytecode VM vs tree-walker — best of %d full runs each\n", rep.Iters)
	fmt.Fprintf(&sb, "%-14s %12s %12s %8s\n", "benchmark", "interp(ns)", "vm(ns)", "speedup")
	for _, row := range rep.Rows {
		if row.Note != "" {
			fmt.Fprintf(&sb, "%-14s %12s\n", row.Name, row.Note)
			continue
		}
		fmt.Fprintf(&sb, "%-14s %12d %12d %7.2fx\n", row.Name, row.InterpNs, row.VMNs, row.Speedup)
	}
	fmt.Fprintf(&sb, "  geomean speedup %.2fx\n", rep.GeomeanSpeedup)
	return sb.String()
}
