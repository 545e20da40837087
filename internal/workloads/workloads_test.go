package workloads

import (
	"strings"
	"testing"

	"comp/internal/core"
	"comp/internal/interp"
	"comp/internal/vm"
)

func TestSuiteComplete(t *testing.T) {
	all := All()
	if len(all) != 12 {
		t.Fatalf("suite has %d benchmarks, want 12", len(all))
	}
	for i, name := range tableOrder {
		if all[i].Name != name {
			t.Fatalf("position %d = %s, want %s (Table II order)", i, all[i].Name, name)
		}
	}
	for _, b := range all {
		if b.Suite == "" || b.InputDesc == "" {
			t.Errorf("%s missing metadata", b.Name)
		}
		if b.SharedMem && b.Shared == nil {
			t.Errorf("%s marked shared but has no workload", b.Name)
		}
		if !b.SharedMem && b.Source == "" {
			t.Errorf("%s has no source", b.Name)
		}
	}
	if _, err := Get("blackscholes"); err != nil {
		t.Error(err)
	}
	if _, err := Get("nope"); err == nil {
		t.Error("unknown benchmark lookup succeeded")
	}
}

func TestApplicabilityMatchesTable2(t *testing.T) {
	want := map[string][]string{
		"blackscholes":  {"streaming"},
		"streamcluster": {"streaming", "merging"},
		"ferret":        {"sharedmem"},
		"dedup":         nil,
		"freqmine":      {"sharedmem"},
		"kmeans":        {"streaming"},
		"cg":            {"streaming", "merging"},
		"cfd":           {"merging"},
		"nn":            {"streaming", "regularization"},
		"srad":          {"regularization"},
		"bfs":           nil,
		"hotspot":       nil,
	}
	for name, opts := range want {
		b, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Applicable) != len(opts) {
			t.Errorf("%s applicable = %v, want %v", name, b.Applicable, opts)
			continue
		}
		for _, o := range opts {
			if !b.Has(o) {
				t.Errorf("%s missing %s", name, o)
			}
		}
	}
}

// TestMiniCVariantsEquivalent is the end-to-end soak: every MiniC
// benchmark must produce identical outputs on the CPU baseline, the naive
// MIC offload, and the fully optimized MIC version.
func TestMiniCVariantsEquivalent(t *testing.T) {
	for _, b := range All() {
		if b.SharedMem {
			continue
		}
		b := b
		t.Run(b.Name, func(t *testing.T) {
			cpu, err := b.Run(RunOptions{Variant: CPU})
			if err != nil {
				t.Fatalf("cpu: %v", err)
			}
			naive, err := b.Run(RunOptions{Variant: MICNaive})
			if err != nil {
				t.Fatalf("naive: %v", err)
			}
			opt, err := b.Run(RunOptions{Variant: MICOptimized, Opt: core.DefaultOptions()})
			if err != nil {
				t.Fatalf("optimized: %v", err)
			}
			if err := b.CompareOutputs(cpu, naive); err != nil {
				t.Fatalf("cpu vs naive: %v", err)
			}
			if err := b.CompareOutputs(cpu, opt); err != nil {
				t.Fatalf("cpu vs optimized: %v", err)
			}
			t.Logf("%-14s cpu=%v naive=%v opt=%v  naive/cpu=%.2f opt/naive=%.2f launches naive=%d opt=%d",
				b.Name, cpu.Stats.Time, naive.Stats.Time, opt.Stats.Time,
				float64(cpu.Stats.Time)/float64(naive.Stats.Time),
				float64(naive.Stats.Time)/float64(opt.Stats.Time),
				naive.Stats.KernelLaunches, opt.Stats.KernelLaunches)
		})
	}
}

func TestOptimizerAppliesExpectedTransforms(t *testing.T) {
	expect := map[string][]string{
		"blackscholes":  {"stream"},
		"streamcluster": {"merge"},
		"cg":            {"merge"},
		"cfd":           {"merge"},
		"kmeans":        {"stream"},
		"nn":            {"reorder", "stream"},
		"srad":          {"split"},
	}
	for name, opts := range expect {
		b, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.OptimizeReport(core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, o := range opts {
			if !res.Report.Remarks.Has(o) {
				t.Errorf("%s: transform %q not applied; remarks:\n%s", name, o, res.Report.Remarks.Render())
			}
		}
	}
}

func TestOptimizerDeclinesWhereNothingApplies(t *testing.T) {
	for _, name := range []string{"dedup", "hotspot", "bfs"} {
		b, err := Get(name)
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.OptimizeReport(core.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if applied := res.Report.Remarks.Applied(); len(applied) != 0 {
			t.Errorf("%s: expected no transforms, got %+v", name, applied)
		}
		// Every decline must carry a reason; "nothing applied" is itself
		// an explained outcome under the pass manager.
		if len(res.Report.Remarks.Skipped()) == 0 {
			t.Errorf("%s: no skipped-with-reason remarks recorded", name)
		}
		for _, r := range res.Report.Remarks.Skipped() {
			if r.Reason == "" {
				t.Errorf("%s: skipped remark without reason: %+v", name, r)
			}
		}
	}
}

func TestCPUSourceStripsOffload(t *testing.T) {
	b, _ := Get("blackscholes")
	src, err := b.CPUSource()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(src, "offload") {
		t.Fatalf("CPU source still mentions offload:\n%s", src)
	}
	if !strings.Contains(src, "omp parallel for") {
		t.Fatalf("CPU source lost omp pragma")
	}
}

func TestSharedRunMechanisms(t *testing.T) {
	ferret, _ := Get("ferret")
	freqmine, _ := Get("freqmine")

	// ferret at full input cannot run under MYO (allocation cap).
	if _, err := RunShared(ferret, MechMYO, 1.0); err == nil {
		t.Fatal("ferret full input ran under MYO; the paper reports it cannot")
	}
	// At the reduced 1500-image input it runs, and COMP wins big.
	fm, err := RunShared(ferret, MechMYO, ferret.Shared.MYOScale)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := RunShared(ferret, MechCOMP, ferret.Shared.MYOScale)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(fm.Time) / float64(fc.Time)
	if ratio < 4 || ratio > 14 {
		t.Errorf("ferret MYO/COMP = %.2f, want in the 7.81x neighbourhood", ratio)
	}
	if fm.Faults == 0 {
		t.Error("MYO run took no faults")
	}
	if fc.Segments == 0 {
		t.Error("COMP run created no segments")
	}
	t.Logf("ferret: myo=%v comp=%v ratio=%.2f faults=%d segments=%d",
		fm.Time, fc.Time, ratio, fm.Faults, fc.Segments)

	// freqmine runs under both; gain is modest (compute dominates).
	qm, err := RunShared(freqmine, MechMYO, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	qc, err := RunShared(freqmine, MechCOMP, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	ratio = float64(qm.Time) / float64(qc.Time)
	if ratio < 1.05 || ratio > 1.6 {
		t.Errorf("freqmine MYO/COMP = %.2f, want near 1.16x", ratio)
	}
	t.Logf("freqmine: myo=%v comp=%v ratio=%.2f", qm.Time, qc.Time, ratio)

	// CPU variants exist for both.
	if _, err := RunShared(ferret, MechCPU, 1.0); err != nil {
		t.Fatal(err)
	}
	// Linear-search translation is worse than bid-based.
	cl, err := RunShared(freqmine, MechCOMPLinear, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	if cl.Time <= qc.Time {
		t.Errorf("linear translation %v not slower than bid translation %v", cl.Time, qc.Time)
	}
}

func TestSharedRejectsWrongKinds(t *testing.T) {
	bs, _ := Get("blackscholes")
	if _, err := RunShared(bs, MechMYO, 1.0); err == nil {
		t.Error("RunShared accepted a MiniC benchmark")
	}
	ferret, _ := Get("ferret")
	if _, err := ferret.Run(RunOptions{Variant: CPU}); err == nil {
		t.Error("Run accepted a shared-memory benchmark")
	}
}

func TestTable3Counts(t *testing.T) {
	ferret, _ := Get("ferret")
	freqmine, _ := Get("freqmine")
	if ferret.Shared.Allocations != 80298 || ferret.Shared.StaticSites != 19 {
		t.Errorf("ferret Table III counts wrong: %+v", ferret.Shared)
	}
	if freqmine.Shared.Allocations != 912 || freqmine.Shared.StaticSites != 7 {
		t.Errorf("freqmine Table III counts wrong: %+v", freqmine.Shared)
	}
}

func TestSharedConfigVariants(t *testing.T) {
	ferret, _ := Get("ferret")
	// Custom segment size returns reservation accounting.
	res, err := RunSharedSegment(ferret, 1.0, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Segments != 6 || res.Reserved != 6*(16<<20) {
		t.Fatalf("segments=%d reserved=%d", res.Segments, res.Reserved)
	}
	// Custom MYO page size changes the fault count proportionally.
	import_cfg := func(page int64) int64 {
		cfg := defaultMYO()
		cfg.PageBytes = page
		r, err := RunSharedMYOConfig(ferret, ferret.Shared.MYOScale, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r.Faults
	}
	f4k := import_cfg(4096)
	f16k := import_cfg(16384)
	if f16k >= f4k {
		t.Fatalf("coarser pages did not reduce faults: %d vs %d", f16k, f4k)
	}
}

// TestPrepareRunsTheVM: an unset Exec compiles to bytecode and
// vm.ExecInterp keeps the tree-walker, while interp.Compile alone attaches
// no engine, so the tree-walker stays the tests' reference.
func TestPrepareRunsTheVM(t *testing.T) {
	b, err := Get("nn")
	if err != nil {
		t.Fatal(err)
	}
	p, _, err := b.Prepare(RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Engine().(*vm.Engine); !ok {
		t.Fatalf("Prepare(RunOptions{}) engine = %T, want *vm.Engine", p.Engine())
	}
	p, _, err = b.Prepare(RunOptions{Exec: vm.ExecInterp})
	if err != nil {
		t.Fatal(err)
	}
	if p.Engine() != nil {
		t.Fatalf("Exec interp engine = %T, want the tree-walker", p.Engine())
	}
	ref, err := interp.Compile(b.Source)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Engine() != nil {
		t.Fatalf("interp.Compile engine = %T, want the tree-walker", ref.Engine())
	}
}
