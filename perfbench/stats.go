package main

import (
	"math"
	"sort"
	"time"
)

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianDur is the median of sorted durations.
func medianDur(sorted []time.Duration) time.Duration {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

// tailWindow caps how many consecutive ops one tail estimate spans. With
// more samples the highest percentile with ten beyond it moves past p99.9,
// where host preemptions of a few ms, not the code, set the value.
const tailWindow = 1000

// windowedTail splits the ops, in completion order, into equal windows of
// at most tailWindow, takes each window's tail, and returns the median of
// those tails and the percentile they read.
func windowedTail(lat []time.Duration) (time.Duration, float64) {
	k := (len(lat) + tailWindow - 1) / tailWindow
	if k <= 1 {
		return tailLatency(sortedDurations(lat))
	}
	var tails []float64
	var pct float64
	for i := 0; i < k; i++ {
		var t time.Duration
		t, pct = tailLatency(sortedDurations(lat[i*len(lat)/k : (i+1)*len(lat)/k]))
		tails = append(tails, float64(t))
	}
	return time.Duration(median(tails)), pct
}

func sortedDurations(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// tailLatency returns the highest percentile of sorted with at least ten
// samples beyond it, and that percentile. Below eleven samples it is the
// maximum.
func tailLatency(sorted []time.Duration) (time.Duration, float64) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	if n < 11 {
		return sorted[n-1], 100
	}
	return sorted[n-11], 100 * float64(n-10) / float64(n)
}

// geomean is the geometric mean; the empty product's mean is 1.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 1
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// layerGroups names each per-layer time metric (and allocation metric,
// if any) and the spans whose self time it sums.
var layerGroups = []struct {
	time, alloc string
	spans       []string
}{
	{"minic.self_ms", "minic.alloc_mb", []string{"minic.parse", "minic.check", "minic.print"}},
	{"pass.self_ms", "pass.alloc_mb", []string{"pass.parse", "pass.run"}},
	{"interp.lower_ms", "", []string{"interp.lower"}},
	{"vm.compile_ms", "", []string{"vm.compile"}},
	{"vm.exec_ms", "vm.exec_alloc_mb", []string{"vm.exec"}},
	{"runtime.run_ms", "", []string{"runtime.run"}},
	{"runtime.finish_ms", "runtime.finish_alloc_mb", []string{"runtime.finish"}},
	{"tune.self_ms", "", []string{"tune.tune"}},
	{"shmem.run_ms", "", []string{"shmem.run"}},
	{"myo.run_ms", "", []string{"myo.run"}},
	{"bench.self_ms", "", []string{"op"}},
}

// countMetrics are the exact counts every traced run reports, per op.
var countMetrics = []string{
	"minic.calls", "minic.ast_nodes", "pass.calls", "pass.applied",
	"vm.vecloops", "engine.steps", "runtime.transfers",
	"runtime.kernel_launches", "tune.probes",
}

// serveMetrics are the server's own counters, reported as run totals.
var serveMetrics = []string{
	"serve.plan_hit_ratio", "serve.plan_misses", "serve.tune_probes",
	"serve.batches", "serve.max_batch", "serve.shed",
}

// layerMetrics derives the traced run's per-layer metrics. Times and
// allocations are per op; counts are per op; serve's counters are totals
// for the run's server. busy is the timed phase's wall time minus the
// engine-only re-runs, which happen outside ops.
func layerMetrics(h *harness, busy time.Duration) map[string]metric {
	ms := func(d time.Duration) float64 {
		return float64(d) / float64(time.Millisecond) / float64(max(1, h.attempted))
	}
	mb := func(b int64) float64 { return float64(b) / (1 << 20) / float64(max(1, h.attempted)) }
	totals := selfTimes(h.p.tr.spans)
	group := func(names []string) (self time.Duration, alloc int64) {
		for _, n := range names {
			if lt := totals[n]; lt != nil {
				self += lt.Self
				alloc += lt.SelfAlloc
			}
		}
		return self, alloc
	}
	out := map[string]metric{}
	for _, g := range layerGroups {
		self, alloc := group(g.spans)
		out[g.time] = metric{ms(self), "ms"}
		if g.alloc != "" {
			out[g.alloc] = metric{mb(alloc), "MB"}
		}
	}
	total := func(name string) time.Duration {
		if lt := totals[name]; lt != nil {
			return lt.Total
		}
		return 0
	}
	out["runtime.backend_ms"] = metric{math.Max(0, out["runtime.run_ms"].Value-out["vm.exec_ms"].Value), "ms"}
	share := 0.0
	if op := total("op"); op > 0 {
		share = float64(total("runtime.finish")) / float64(op)
	}
	out["runtime.finish_share"] = metric{share, "ratio"}
	out["tune.probe_ms"] = metric{ms(total("tune.measure")), "ms"}

	for _, c := range countMetrics {
		out[c] = metric{h.p.counts[c] / float64(max(1, h.attempted)), "count"}
	}
	out["tune.warm_zero_probe_ratio"] = metric{h.layer["tune.warm_zero_probe_ratio"], "ratio"}
	for _, c := range serveMetrics {
		unit := "count"
		if c == "serve.plan_hit_ratio" {
			unit = "ratio"
		}
		out[c] = metric{h.layer[c], unit}
	}
	out["trace.ops_per_s"] = metric{float64(len(h.lat)) / busy.Seconds(), "op/s"}
	out["trace.overhead_share"] = metric{float64(h.p.tr.cost) / float64(busy), "ratio"}
	return out
}
