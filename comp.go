// Package comp is a reproduction of "COMP: Compiler Optimizations for
// Manycore Processors" (MICRO 2014): a source-to-source compiler that
// optimizes offload-annotated programs for a manycore coprocessor, together
// with the simulated host+coprocessor platform it is evaluated on.
//
// The public surface re-exports the three layers a user composes:
//
//   - Optimize applies the paper's optimizations (data streaming, offload
//     merging, regularization) to MiniC source and returns transformed
//     source plus a report;
//   - Run / RunSource execute a MiniC program on the simulated platform
//     (Xeon E5 host + Xeon Phi coprocessor over PCIe) and return timing,
//     transfer and memory statistics;
//   - Benchmarks and NewBenchRunner expose the 12-benchmark evaluation
//     suite and the harness that regenerates every figure and table in the
//     paper;
//   - NewServer stands up the offload serving layer: a plan-cached,
//     admission-controlled service that batches concurrent requests into
//     deterministic scheduler runs (DESIGN.md §10);
//   - NewFleet shards that serving layer over a multi-device fleet:
//     consistent-hash routing on plan keys, plan-affine work stealing, a
//     shared compiled-plan registry, and device-loss drains (DESIGN.md §15).
//
// See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// paper-versus-measured record.
package comp

import (
	"comp/internal/bench"
	"comp/internal/core"
	"comp/internal/fleet"
	"comp/internal/interp"
	"comp/internal/pass"
	"comp/internal/runtime"
	"comp/internal/serve"
	"comp/internal/sim/metrics"
	"comp/internal/vm"
	"comp/internal/workloads"
)

// Options selects compiler optimizations; see core.Options for fields.
type Options = core.Options

// Result is a compilation result: transformed AST, printable source, and
// the report of applied optimizations.
type Result = core.Result

// Remark is one structured pass decision (applied / skipped-illegal /
// skipped-unprofitable plus a reason); Remarks is the ordered trail the
// compiler records for every run. Result.Report.Remarks carries it.
type (
	Remark  = pass.Remark
	Remarks = pass.Remarks
)

// DefaultPassSpec is the default pipeline spec ("merge,regularize,streaming").
const DefaultPassSpec = pass.DefaultSpec

// Stats summarizes one simulated execution.
type Stats = runtime.Stats

// RunResult bundles statistics with the executed program (for reading
// output arrays).
type RunResult = runtime.Result

// Config assembles the simulated platform.
type Config = runtime.Config

// Benchmark is one member of the evaluation suite.
type Benchmark = workloads.Benchmark

// Figure is one regenerated table or figure.
type Figure = bench.Figure

// Server is the long-running offload service: plan-cached, admission
// controlled, deterministic per-request results.
type Server = serve.Server

// ServeConfig configures a Server (streams, queue depth, batching).
type ServeConfig = serve.Config

// ServeJob is one request to a Server: a registry workload by name or
// inline MiniC source.
type ServeJob = serve.Job

// ServeResponse is a served request's outputs plus its serving metadata.
type ServeResponse = serve.Response

// ErrOverloaded is returned by Server.Do when the admission queue is full;
// ErrDeadlineExceeded when a request's deadline passed while queued.
var (
	ErrOverloaded       = serve.ErrOverloaded
	ErrDeadlineExceeded = serve.ErrDeadlineExceeded
)

// Fleet shards the serving layer over N simulated devices: consistent-hash
// routing on compiled-plan keys keeps per-device plan caches hot, work
// stealing respects plan affinity, and a shared registry lets stolen
// requests reuse the donor's plan without recompiling.
type Fleet = fleet.Fleet

// FleetConfig assembles a Fleet from per-device configurations.
type FleetConfig = fleet.Config

// FleetDevice describes one fleet member: an ID plus its simulated
// platform and server shape.
type FleetDevice = fleet.DeviceConfig

// FleetReport is the fleet-wide metrics rollup: per-device ServerReports
// plus router accounting and the deterministic makespan.
type FleetReport = metrics.FleetReport

// ErrNoDevices rejects a fleet submission when every device has been lost.
var ErrNoDevices = fleet.ErrNoDevices

// DefaultOptions enables the full optimization pipeline.
func DefaultOptions() Options { return core.DefaultOptions() }

// DefaultConfig returns the calibrated evaluation platform (§VI).
func DefaultConfig() Config { return runtime.DefaultConfig() }

// Optimize parses, checks and optimizes MiniC source.
func Optimize(src string, opt Options) (*Result, error) {
	return core.Optimize(src, opt)
}

// OffloadAndOptimize first inserts offload clauses into a plain OpenMP
// program (the Apricot capability the paper builds on), then optimizes.
func OffloadAndOptimize(src string, opt Options) (*Result, error) {
	return core.OffloadAndOptimize(src, opt)
}

// OptimizeSpec runs an explicit pass pipeline (e.g. "merge,streaming")
// instead of the Options-selected default; opt still supplies the block
// count and streaming knobs. See KnownPasses for valid names.
func OptimizeSpec(src, spec string, opt Options) (*Result, error) {
	return core.OptimizeSpec(src, spec, opt.PassConfig())
}

// KnownPasses lists the pass names OptimizeSpec accepts, sorted.
func KnownPasses() []string { return pass.KnownPasses() }

// RunSource compiles and executes MiniC source on the default simulated
// platform.
func RunSource(src string) (RunResult, error) {
	return RunSourceOn(src, DefaultConfig())
}

// RunSourceOn compiles and executes MiniC source on a specific platform,
// on the bytecode VM.
func RunSourceOn(src string, cfg Config) (RunResult, error) {
	p, err := interp.Compile(src)
	if err != nil {
		return RunResult{}, err
	}
	if err := vm.Apply(p, ""); err != nil {
		return RunResult{}, err
	}
	return runtime.Run(p, cfg)
}

// Benchmarks returns the 12-benchmark suite in Table II order.
func Benchmarks() []*Benchmark { return workloads.All() }

// GetBenchmark looks a benchmark up by name.
func GetBenchmark(name string) (*Benchmark, error) { return workloads.Get(name) }

// NewBenchRunner creates the evaluation harness with an empty result
// cache.
func NewBenchRunner() *bench.Runner { return bench.NewRunner() }

// NewServer stands up an offload serving layer; Close it when done.
func NewServer(cfg ServeConfig) (*Server, error) { return serve.New(cfg) }

// NewFleet stands up a sharded multi-device serving fleet; Close it when
// done.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return fleet.New(cfg) }

// DefaultFleetDevices builds a hosts × perHost heterogeneous device list
// (alternating Xeon Phi ES2 and 3120-class cards) for NewFleet.
func DefaultFleetDevices(hosts, perHost, queue int) []FleetDevice {
	return fleet.DefaultDevices(hosts, perHost, queue)
}
