package main

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"comp/internal/pass"
	"comp/internal/sim/machine"
	"comp/internal/tune"
	"comp/internal/workloads"
)

// root is the repository root as seen from this package's directory.
const root = ".."

func TestSelfTimes(t *testing.T) {
	// op [0,100] has children a [10,40] and b [30,60], which overlap, and
	// c [90,120], which outlives it; a has one child [15,20].
	spans := []Span{
		{ID: 0, Parent: -1, Name: "op", Start: 0, End: 100, Alloc: 1000},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40, Alloc: 100},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 60, Alloc: 200},
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120, Alloc: 50},
		{ID: 4, Parent: 1, Name: "b", Start: 15, End: 20, Alloc: 30},
	}
	got := selfTimes(spans)
	want := map[string]layerTotal{
		"op": {Total: 100, Self: 40, SelfAlloc: 650},
		"a":  {Total: 30, Self: 25, SelfAlloc: 70},
		"b":  {Total: 35, Self: 35, SelfAlloc: 230},
		"c":  {Total: 30, Self: 30, SelfAlloc: 50},
	}
	if len(got) != len(want) {
		t.Fatalf("got layers %v, want %v", got, want)
	}
	for name, w := range want {
		if g := got[name]; g == nil || *g != w {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
}

func TestTracerNesting(t *testing.T) {
	tr := newTracer()
	tr.setOp(7)
	outer := tr.begin("outer")
	inner := tr.begin("inner")
	tr.end(inner)
	sibling := tr.begin("sibling")
	tr.end(sibling)
	tr.end(outer)
	for _, s := range tr.spans {
		if s.Op != 7 || s.End < s.Start {
			t.Errorf("bad span %+v", s)
		}
	}
	if p := tr.spans[inner].Parent; p != outer {
		t.Errorf("inner's parent = %d, want %d", p, outer)
	}
	if p := tr.spans[sibling].Parent; p != outer {
		t.Errorf("sibling's parent = %d, want %d", p, outer)
	}
	if p := tr.spans[outer].Parent; p != -1 {
		t.Errorf("outer's parent = %d, want -1", p)
	}
}

func TestTailLatency(t *testing.T) {
	var xs []time.Duration
	for i := 1; i <= 24; i++ {
		xs = append(xs, time.Duration(i))
	}
	got, pct := tailLatency(xs)
	if got != 14 || pct != 100*14.0/24 {
		t.Errorf("tail of 1..24 = %v at p%.2f, want 14 at p58.33", got, pct)
	}
	if got, pct := tailLatency(xs[:5]); got != 5 || pct != 100 {
		t.Errorf("tail of five samples = %v at p%v, want the maximum", got, pct)
	}
	// 3000 samples make three windows of 1000; their tails are the 990th
	// value of each, 990, 1990 and 2990, and the median is 1990.
	xs = nil
	for i := 1; i <= 3000; i++ {
		xs = append(xs, time.Duration(i))
	}
	if got, pct := windowedTail(xs); got != 1990 || pct != 99 {
		t.Errorf("windowed tail of 1..3000 = %v at p%v, want 1990 at p99", got, pct)
	}
}

// TestTracingChangesNoResult: a traced and an untraced run give
// bit-identical simulated statistics, outputs and tuning decisions.
func TestTracingChangesNoResult(t *testing.T) {
	b, err := workloads.Get("nn")
	if err != nil {
		t.Fatal(err)
	}
	cfg := pass.Config{Blocks: 10, ReduceMemory: true, Persistent: true}
	var stats []any
	var decisions []tune.Decision
	for _, traced := range []bool{false, true} {
		p := newProbe(traced)
		c, err := p.build(b.Source, "regularize,streaming", cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := p.execute(c, platform(b), b.Setup)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.flushShadows(); err != nil {
			t.Fatal(err)
		}
		out, err := res.Program.ArrayData(b.Outputs[0])
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, []any{res.Stats, out})
		d, err := decide(p, &tune.Tuner{Model: tune.NewModel()}, b, machine.XeonPhi())
		if err != nil {
			t.Fatal(err)
		}
		decisions = append(decisions, d)
	}
	if !reflect.DeepEqual(stats[0], stats[1]) {
		t.Errorf("tracing changed the simulated run:\n%+v\n%+v", stats[0], stats[1])
	}
	if !reflect.DeepEqual(decisions[0], decisions[1]) {
		t.Errorf("tracing changed the tuning decision:\n%+v\n%+v", decisions[0], decisions[1])
	}
}

// tracedRun runs a workload's timed phase with tracing on and returns the
// harness. trim, if set, shrinks the workload after setup.
func tracedRun(t *testing.T, w workload, seconds int, trim func()) *harness {
	t.Helper()
	h := newHarness(root, 1, seconds, true)
	if err := w.setup(h); err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if trim != nil {
		trim()
	}
	if err := w.run(h); err != nil {
		t.Fatal(err)
	}
	for id, msg := range h.failed {
		t.Errorf("op %d failed: %s", id, msg)
	}
	return h
}

// TestEveryPredictedLayerHasSpans: each layer README.md predicts on a
// workload records at least one span there.
func TestEveryPredictedLayerHasSpans(t *testing.T) {
	compileLayers := []string{"op", "minic.parse", "minic.check", "minic.print", "pass.parse", "pass.run", "interp.lower", "vm.compile"}
	execLayers := slices.Concat(compileLayers, []string{"runtime.run", "runtime.finish", "vm.exec"})
	cases := []struct {
		name    string
		w       workload
		seconds int
		trim    func(w workload)
		layers  []string
	}{
		{"compile", &compileWorkload{}, 1, nil, compileLayers},
		{"suite", &suiteWorkload{}, 1, func(w workload) {
			// One MiniC workload's three variants plus the shared-memory runs.
			sw := w.(*suiteWorkload)
			var kept []suiteRun
			for _, r := range sw.runs {
				if r.b.Name == "nn" || r.b.SharedMem {
					kept = append(kept, r)
				}
			}
			sw.runs = kept
		}, slices.Concat(execLayers, []string{"shmem.run", "myo.run"})},
		{"tune", &tuneWorkload{}, 1, nil, slices.Concat(execLayers, []string{"tune.tune", "tune.measure"})},
		{"serve", &serveWorkload{}, 1, nil, []string{"serve.request"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.name == "tune" && testing.Short() {
				t.Skip("a tune round takes about 30 s")
			}
			var trim func()
			if c.trim != nil {
				trim = func() { c.trim(c.w) }
			}
			h := tracedRun(t, c.w, c.seconds, trim)
			seen := selfTimes(h.p.tr.spans)
			for _, l := range c.layers {
				if seen[l] == nil {
					t.Errorf("no %s span on %s", l, c.name)
				}
			}
			m := layerMetrics(h, time.Second)
			if c.name == "tune" && m["tune.warm_zero_probe_ratio"].Value != 1 {
				t.Errorf("warm repeats spent probes: ratio %v", m["tune.warm_zero_probe_ratio"].Value)
			}
			if c.name == "serve" && m["serve.plan_hit_ratio"].Value == 0 {
				t.Errorf("serve reported no plan-cache hits")
			}
		})
	}
}

// TestCommandLine: bad arguments exit non-zero without printing a result;
// a good run ends with the result line.
func TestCommandLine(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "compile", "--trace", "2"},
		{"--workload", "compile", "--seconds", "0"},
	} {
		var out, errOut bytes.Buffer
		if code := realMain(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
	res, err := runWorkload(root, "compile", &compileWorkload{}, 3, 1, false, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Errorf("compile run: %+v", res)
	}
	for _, name := range []string{"setup_s", "ops_per_s", "latency_p50_ms", "latency_tail_ms", "alloc_mb_per_op", "sim_speedup_geomean"} {
		m, ok := res.Metrics[name]
		if !ok || m.Value <= 0 || strings.TrimSpace(m.Unit) == "" {
			t.Errorf("metric %s = %+v", name, m)
		}
	}
}
