package vm_test

import (
	"regexp"
	"testing"

	"comp/internal/interp"
	"comp/internal/vm"
	"comp/internal/workloads"
)

// bigLiteral rejects fuzz inputs that could allocate gigabyte arrays:
// execution-fuzzing needs a memory bound the parse-only fuzzers don't.
var bigLiteral = regexp.MustCompile(`[0-9]{6,}`)

// FuzzVMDiff: any input the front end accepts must execute identically on
// the tree-walker and the VM — same output, same globals, same backend
// event stream, same error. A VM panic that is not a RuntimeError escapes
// Run and fails the target. The checked-in corpus under testdata/fuzz
// carries over the minic parser corpus; the generator seeds add full
// programs with offload regions.
func FuzzVMDiff(f *testing.F) {
	for _, b := range workloads.All() {
		if b.SharedMem {
			continue
		}
		f.Add(b.Source)
		if src, err := b.CPUSource(); err == nil {
			f.Add(src)
		}
	}
	for seed := int64(0); seed < 8; seed++ {
		f.Add(genProgram(seed))
	}
	f.Add("int a; int main(void) { a = 1 / (a - a); return 0; }")
	f.Add("int main(void) { printf(\"%d %d\\n\", 1); return 0; }")

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 32<<10 || bigLiteral.MatchString(src) {
			t.Skip("input too large to execute safely")
		}
		ref, err := interp.Compile(src)
		if err != nil {
			t.Skip("front end rejects input")
		}
		got, err := interp.Compile(src)
		if err != nil {
			t.Fatalf("second compile of accepted input failed: %v", err)
		}
		if err := vm.Apply(got, vm.ExecVM); err != nil {
			t.Fatalf("vm rejects a program the tree-walker accepted: %v", err)
		}
		const budget = 50_000
		refRes := execProgram(ref, nil, budget)
		compareRuns(t, refRes, execProgram(got, nil, budget))

		col, err := interp.Compile(src)
		if err != nil {
			t.Fatalf("third compile of accepted input failed: %v", err)
		}
		if err := vm.Apply(col, vm.ExecColumnar); err != nil {
			t.Fatalf("columnar vm rejects a program the tree-walker accepted: %v", err)
		}
		compareRunsAs(t, refRes, execProgram(col, nil, budget), "columnar")
	})
}

// FuzzColumnarDiff: the columnar tier against the tree-walker alone, with
// seeds biased toward loops that actually lower to fused vector ops —
// batched stores, ragged tails, eager selects, read-modify-write sites.
func FuzzColumnarDiff(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(genProgram(seed))
	}
	f.Add(`float a[20]; float b[20]; int main(void) { int i; for (i = 0; i < 20; i++) { a[i] = i * 0.5; } for (i = 0; i < 20; i++) { b[i] = a[i] * 2.0 + 1.0; } printf("%g\n", b[19]); return 0; }`)
	f.Add(`float a[9]; float lim; int main(void) { int i; lim = 6.5; for (i = 0; i < 9; i++) { a[i] = i; } for (i = 0; i < lim; i++) { a[i] += 1.5; } printf("%g %d\n", a[8], i); return 0; }`)
	f.Add(`int a[12]; int main(void) { int i; for (i = 0; i < 12; i++) { a[i] = i * 5 % 7; } for (i = 0; i < 14; i++) { a[i] = a[i] + 1; } return 0; }`)

	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 32<<10 || bigLiteral.MatchString(src) {
			t.Skip("input too large to execute safely")
		}
		ref, err := interp.Compile(src)
		if err != nil {
			t.Skip("front end rejects input")
		}
		got, err := interp.Compile(src)
		if err != nil {
			t.Fatalf("second compile of accepted input failed: %v", err)
		}
		if err := vm.Apply(got, vm.ExecColumnar); err != nil {
			t.Fatalf("columnar vm rejects a program the tree-walker accepted: %v", err)
		}
		const budget = 50_000
		compareRunsAs(t, execProgram(ref, nil, budget), execProgram(got, nil, budget), "columnar")
	})
}
