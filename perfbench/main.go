// Command perfbench is the repository's host-time benchmark. It drives the
// compiler, the simulator, the tuner and the serving layer through their
// public functions, times those calls from outside, checks every output
// it produces, and prints the result as one JSON line.
//
//	perfbench --workload compile|suite|tune|serve --seed N --seconds S --trace 0|1
//
// It runs from the repository root, which it reads for the goldens its
// correctness checks use; a traced run writes its spans under
// .bench_build/perfbench. See README.md in this directory for the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"comp/internal/vm"
)

// processStart approximates process start: package variables initialize
// before main runs.
var processStart = time.Now()

// setupReps is how many times a run builds its workload's state; setup_s
// is the median, and the last state built is the one measured.
const setupReps = 3

// spanDir is where traced runs write their spans, relative to the root.
const spanDir = ".bench_build/perfbench"

// workload is one of the benchmark's input sets.
type workload interface {
	// setup builds (or rebuilds) everything the timed phase needs.
	setup(h *harness) error
	// run is the timed phase: a fixed amount of work scaled by --seconds.
	run(h *harness) error
	// close releases what setup built.
	close()
}

var workloadsByName = map[string]func() workload{
	"compile": func() workload { return &compileWorkload{} },
	"suite":   func() workload { return &suiteWorkload{} },
	"tune":    func() workload { return &tuneWorkload{} },
	"serve":   func() workload { return &serveWorkload{} },
}

// envInfo records what the numbers were measured on.
type envInfo struct {
	Engine     string `json:"engine"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
}

// harness is one run's shared state: the inputs' seed and size, the
// instrumentation, and every op's outcome.
type harness struct {
	root    string
	seed    int64
	seconds int
	clients int
	p       *probe

	mu        sync.Mutex
	lat       []time.Duration
	attempted int
	failed    map[int]string
	// layer holds per-layer figures a workload reports itself (serve's
	// counters, the tuner's warm-repeat ratio).
	layer map[string]float64
	// speedups are simulated CPU ÷ MIC-optimized makespans (suite only).
	speedups []float64
}

func newHarness(root string, seed int64, seconds int, traced bool) *harness {
	return &harness{
		root:    root,
		seed:    seed,
		seconds: seconds,
		clients: min(2, goruntime.NumCPU()),
		p:       newProbe(traced),
		failed:  map[int]string{},
		layer:   map[string]float64{},
	}
}

// rounds scales a workload's unit of work to the run length: perSecond
// units per second of --seconds, at least one. Work, not wall time,
// bounds a run, so every host and commit measures the same ops and the
// tail is always the same order statistic.
func (h *harness) rounds(perSecond float64) int {
	return max(1, int(float64(h.seconds)*perSecond+0.5))
}

// op times f as one op, single-goroutine workloads only. When tracing,
// the op is a span and the engine-only re-runs follow it, untimed.
func (h *harness) op(f func() error) (int, error) {
	id := h.begin()
	span := -1
	if h.p.traced() {
		h.p.tr.setOp(id)
		span = h.p.tr.begin("op")
	}
	start := time.Now()
	err := f()
	lat := time.Since(start)
	if span >= 0 {
		h.p.tr.end(span)
		if ferr := h.p.flushShadows(); err == nil {
			err = ferr
		}
	}
	h.end(id, lat, err)
	return id, err
}

// begin allocates an op id; end records the op's latency and outcome.
// Both are safe for concurrent use.
func (h *harness) begin() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.attempted++
	return h.attempted - 1
}

func (h *harness) end(id int, lat time.Duration, err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.lat = append(h.lat, lat)
	if err != nil {
		h.failed[id] = err.Error()
	}
}

// ok reports whether an op has not failed so far.
func (h *harness) ok(id int) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	_, failed := h.failed[id]
	return !failed
}

// fail marks an op as failed after the fact (a correctness mismatch). An
// op counts once however many of its checks fail.
func (h *harness) fail(id int, format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if _, ok := h.failed[id]; !ok {
		h.failed[id] = fmt.Sprintf(format, args...)
	}
}

// metric is one named value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: compile, suite, tune or serve")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are drawn from")
	seconds := fs.Int("seconds", 20, "run length; scales the work a run does")
	trace := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mk, ok := workloadsByName[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: want --workload compile|suite|tune|serve, --seconds ≥ 1 and --trace 0|1\n")
		return 2
	}
	res, err := runWorkload(".", *name, mk(), *seed, *seconds, *trace == 1, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runWorkload sets the workload up setupReps times, runs its timed phase
// once, and derives the run's metrics. Human-readable lines go to out.
func runWorkload(root, name string, w workload, seed int64, seconds int, traced bool, out io.Writer) (*result, error) {
	// All of a workload's work runs on one goroutine (serve's dispatcher
	// included), so one P measures it. A second P only lets the concurrent
	// GC contend with that goroutine, which on a 2-vCPU host made op
	// latencies less steady and compiles about a third slower.
	goruntime.GOMAXPROCS(1)
	env := envInfo{
		Engine:     vm.ExecVM,
		NProc:      goruntime.NumCPU(),
		GOMAXPROCS: goruntime.GOMAXPROCS(0),
		GoVersion:  goruntime.Version(),
	}
	h := newHarness(root, seed, seconds, traced)
	defer w.close()

	var setups []float64
	start := processStart
	for i := 0; i < setupReps; i++ {
		if i > 0 {
			w.close()
			start = time.Now()
		}
		if err := w.setup(h); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	goruntime.GC()

	t0, alloc0 := time.Now(), allocated()
	if err := w.run(h); err != nil {
		return nil, err
	}
	wall, alloc := time.Since(t0), allocated()-alloc0

	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	sorted := sortedDurations(h.lat)
	tail, tailPct := windowedTail(h.lat)
	res := &result{
		Correct:   len(h.failed) == 0,
		Attempted: h.attempted,
		Failed:    len(h.failed),
		Metrics:   map[string]metric{},
	}
	fmt.Fprintf(out, "# perfbench workload=%s seed=%d seconds=%d trace=%v engine=%s nproc=%d gomaxprocs=%d clients=%d go=%s\n",
		name, seed, seconds, traced, env.Engine, env.NProc, env.GOMAXPROCS, h.clients, env.GoVersion)
	fmt.Fprintf(out, "# ops=%d failed=%d failed_frac=%.6f tail=p%.2f (10 samples beyond it) in windows of at most %d of the %d samples\n",
		h.attempted, len(h.failed), float64(len(h.failed))/float64(max(1, h.attempted)), tailPct, tailWindow, len(sorted))
	fmt.Fprintf(out, "# peak_rss_mb=%.3f\n", peakRSSMB())
	for _, id := range sortedKeys(h.failed) {
		fmt.Fprintf(out, "# FAILED op %d: %s\n", id, h.failed[id])
	}

	if !traced {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["ops_per_s"] = metric{float64(len(h.lat)) / wall.Seconds(), "op/s"}
		res.Metrics["latency_p50_ms"] = metric{ms(medianDur(sorted)), "ms"}
		res.Metrics["latency_tail_ms"] = metric{ms(tail), "ms"}
		res.Metrics["alloc_mb_per_op"] = metric{float64(alloc) / (1 << 20) / float64(max(1, h.attempted)), "MB"}
		res.Metrics["sim_speedup_geomean"] = metric{geomean(h.speedups), "x"}
	} else {
		busy := wall - h.p.shadowTime
		for k, v := range layerMetrics(h, busy) {
			res.Metrics[k] = v
		}
		res.Metrics["bench.ops"] = metric{float64(len(sorted)), "count"}
		res.Metrics["bench.tail_pct"] = metric{tailPct, "%"}
		path, err := h.p.tr.write(filepath.Join(root, spanDir), name, seed, env)
		if err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Fprintf(out, "# spans: %s\n", path)
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Fprintf(out, "%-30s %14.6f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	return res, nil
}

// peakRSSMB is the process's peak resident set size. It is printed, not
// gated: on tune it is bimodal across identical runs (see README.md).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func sortedKeys[K ~int | ~string, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// readRoot reads a file relative to the repository root.
func (h *harness) readRoot(path string) ([]byte, error) {
	return os.ReadFile(filepath.Join(h.root, path))
}
