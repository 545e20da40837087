package vm_test

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"comp/internal/interp"
	"comp/internal/vm"
	"comp/internal/workloads"
)

// The vmdiff harness: every source that reaches the VM also runs through
// the tree-walker, and the two executions must agree bit-for-bit — printf
// output, every global scalar and array (host and device side), the error
// (or its absence), and the exact stream of Backend operations including
// the Work triples charged at each flush point.

// traceBackend records every backend call as a deterministic string so two
// runs can be compared event by event.
type traceBackend struct {
	events []string
}

func fmtWork(w interp.Work) string {
	return fmt.Sprintf("S(%x,%x,%x)V(%x,%x,%x)X(%x,%x,%x)it=%d",
		math.Float64bits(w.Serial.Flops), math.Float64bits(w.Serial.Bytes), math.Float64bits(w.Serial.IrrBytes),
		math.Float64bits(w.Vec.Flops), math.Float64bits(w.Vec.Bytes), math.Float64bits(w.Vec.IrrBytes),
		math.Float64bits(w.Scalar.Flops), math.Float64bits(w.Scalar.Bytes), math.Float64bits(w.Scalar.IrrBytes),
		w.ParIters)
}

func fmtSpecs(specs []interp.TransferSpec) string {
	var sb strings.Builder
	for _, s := range specs {
		fmt.Fprintf(&sb, "{%s dir=%d dest=%s n=%d b=%d ab=%d off=%d a=%v f=%v sc=%v}",
			s.Item.Name, s.Dir, s.Dest, s.Elems, s.Bytes, s.AllocBytes,
			s.DestOffsetBytes, s.Alloc, s.Free, s.Scalar)
	}
	return sb.String()
}

func (b *traceBackend) HostCompute(w interp.Work) {
	b.events = append(b.events, "host "+fmtWork(w))
}

func (b *traceBackend) Offload(op *interp.OffloadOp) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "offload wait=%q signal=%q persist=%v work=%s specs=%s touched=",
		op.Wait, op.Signal, op.Persist, fmtWork(op.Work), fmtSpecs(op.Specs))
	for _, r := range op.DevTouched {
		fmt.Fprintf(&sb, "[%s %d:%d]", r.Name, r.StartByte, r.EndByte)
	}
	b.events = append(b.events, sb.String())
	return nil
}

func (b *traceBackend) Transfer(op *interp.TransferOp) error {
	b.events = append(b.events, fmt.Sprintf("transfer wait=%q signal=%q specs=%s",
		op.Wait, op.Signal, fmtSpecs(op.Specs)))
	return nil
}

func (b *traceBackend) OffloadWait(tag string) {
	b.events = append(b.events, "wait "+tag)
}

// runResult captures everything observable about one execution.
type runResult struct {
	out     string
	globals string
	trace   []string
	err     error
}

// snapshotGlobals renders every global bit-exactly: scalar cells, host
// array payloads (with layout), and any device-resident copies.
func snapshotGlobals(p *interp.Program) string {
	var sb strings.Builder
	for _, name := range p.GlobalNames() {
		h, ok := p.Global(name)
		if !ok {
			continue
		}
		if !h.IsArray() {
			fmt.Fprintf(&sb, "%s=%x\n", name, math.Float64bits(h.Cell().V))
			continue
		}
		a := h.Arr()
		if a == nil {
			fmt.Fprintf(&sb, "%s=nil\n", name)
		} else {
			fmt.Fprintf(&sb, "%s fields=%d eb=%d [", name, a.Fields, a.ElemBytes)
			for _, v := range a.Data {
				fmt.Fprintf(&sb, "%x,", math.Float64bits(v))
			}
			sb.WriteString("]\n")
		}
		if dev := p.DeviceArray(name); dev != nil {
			fmt.Fprintf(&sb, "%s@dev [", name)
			for _, v := range dev {
				fmt.Fprintf(&sb, "%x,", math.Float64bits(v))
			}
			sb.WriteString("]\n")
		}
	}
	return sb.String()
}

// execProgram resets, seeds, and runs one compiled program against a
// recording backend.
func execProgram(p *interp.Program, setup func(*interp.Program) error, budget int64) *runResult {
	if budget > 0 {
		p.SetLoopBudget(budget)
	}
	res := &runResult{}
	if err := p.Reset(); err != nil {
		res.err = fmt.Errorf("reset: %v", err)
		return res
	}
	if setup != nil {
		if err := setup(p); err != nil {
			res.err = fmt.Errorf("setup: %v", err)
			return res
		}
	}
	tb := &traceBackend{}
	res.err = p.Run(tb)
	res.out = p.Output()
	res.trace = tb.events
	res.globals = snapshotGlobals(p)
	return res
}

// execSource compiles src and runs it on the requested engine
// ("interp", "vm", or "columnar"). interp.Compile attaches no engine, so
// the "interp" reference run is the tree-walker.
func execSource(t *testing.T, src string, setup func(*interp.Program) error, mode string, budget int64) *runResult {
	t.Helper()
	p, err := interp.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := vm.Apply(p, mode); err != nil {
		t.Fatalf("%s attach: %v", mode, err)
	}
	return execProgram(p, setup, budget)
}

func compareRuns(t *testing.T, ref, got *runResult) {
	t.Helper()
	compareRunsAs(t, ref, got, "vm")
}

func compareRunsAs(t *testing.T, ref, got *runResult, label string) {
	t.Helper()
	switch {
	case ref.err == nil && got.err != nil:
		t.Errorf("%s errored where the tree-walker succeeded: %v", label, got.err)
	case ref.err != nil && got.err == nil:
		t.Errorf("%s succeeded where the tree-walker errored: %v", label, ref.err)
	case ref.err != nil && got.err != nil && ref.err.Error() != got.err.Error():
		t.Errorf("error mismatch:\n  interp: %v\n  %s:     %v", ref.err, label, got.err)
	}
	if ref.out != got.out {
		t.Errorf("output mismatch:\n  interp: %q\n  %s:     %q", clip(ref.out), label, clip(got.out))
	}
	if ref.globals != got.globals {
		t.Errorf("globals mismatch:\n  interp: %s\n  %s:     %s",
			clip(firstDiffLine(ref.globals, got.globals)), label, clip(firstDiffLine(got.globals, ref.globals)))
	}
	for i := 0; i < len(ref.trace) || i < len(got.trace); i++ {
		var a, b string
		if i < len(ref.trace) {
			a = ref.trace[i]
		}
		if i < len(got.trace) {
			b = got.trace[i]
		}
		if a != b {
			t.Errorf("backend trace diverges at event %d:\n  interp: %s\n  %s:     %s", i, clip(a), label, clip(b))
			return
		}
	}
}

func clip(s string) string {
	if len(s) > 400 {
		return s[:400] + fmt.Sprintf("... (%d bytes)", len(s))
	}
	return s
}

// firstDiffLine returns the first line of a that differs from b's
// corresponding line, to keep array dumps readable in failures.
func firstDiffLine(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i, l := range al {
		if i >= len(bl) || bl[i] != l {
			return l
		}
	}
	return ""
}

// diffRun executes src on the tree-walker, the scalar VM, and the
// columnar VM, requiring all three bit-identical.
func diffRun(t *testing.T, src string, setup func(*interp.Program) error, budget int64) {
	t.Helper()
	ref := execSource(t, src, setup, vm.ExecInterp, budget)
	compareRunsAs(t, ref, execSource(t, src, setup, vm.ExecVM, budget), "vm")
	compareRunsAs(t, ref, execSource(t, src, setup, vm.ExecColumnar, budget), "columnar")
}

// TestVMDiffWorkloads runs every MiniC workload through both engines: the
// OpenMP-only CPU baseline and the offload (MIC) source. The two shared-
// memory benchmarks execute via internal/shmem, not interp.Program, so the
// MiniC sweep covers the remaining ten.
func TestVMDiffWorkloads(t *testing.T) {
	for _, b := range workloads.All() {
		if b.SharedMem {
			continue
		}
		b := b
		t.Run(b.Name+"/cpu", func(t *testing.T) {
			t.Parallel()
			src, err := b.CPUSource()
			if err != nil {
				t.Fatalf("cpu source: %v", err)
			}
			diffRun(t, src, b.Setup, 0)
		})
		t.Run(b.Name+"/mic", func(t *testing.T) {
			t.Parallel()
			diffRun(t, b.Source, b.Setup, 0)
		})
	}
}

// TestVMDiffTransformGoldens runs every checked-in transform golden — the
// exact sources the golden tests pin for streaming, merging, regularization
// and the combined pipeline — through both engines. The `// golden:` and
// `// applied:` header lines are ordinary line comments to the parser.
func TestVMDiffTransformGoldens(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("..", "transform", "testdata", "golden", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no transform goldens found (err=%v)", err)
	}
	for _, path := range files {
		path := path
		base := filepath.Base(path)
		wl := strings.SplitN(base, ".", 2)[0]
		b, err := workloads.Get(wl)
		if err != nil {
			t.Fatalf("golden %s names unknown workload: %v", base, err)
		}
		t.Run(strings.TrimSuffix(base, ".c"), func(t *testing.T) {
			t.Parallel()
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			diffRun(t, string(data), b.Setup, 0)
		})
	}
}
