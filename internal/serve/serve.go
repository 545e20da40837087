// Package serve is the offload-as-a-service layer: a long-running front
// end that multiplexes many clients onto the multi-stream scheduler
// (runtime.Scheduler) the way a serving system fronts a model or a
// database — with a plan cache, admission control, and batching.
//
// The paper's kernel-launch minimization (§III) amortizes per-offload
// setup across many small requests; this layer amortizes the other
// per-workload costs a service pays: compiling the optimized program and
// tuning its streaming block count by measurement run once per
// (workload, machine) key and are reused by every later request (Zhang et
// al.: tuning decisions are a property of the workload/platform pair, not
// of the request). Admitted requests are grouped into batches, each batch
// executed as one deterministic Scheduler run across N device streams
// (Li et al.: multiplexing streams recovers the utilization a single
// pipeline leaves idle).
//
// Determinism: a request's results are a pure function of its plan source
// and input setup. The interpreter computes every value itself — the
// simulated platform only times operations (proven by the differential
// suite in internal/interp) — so batch composition, stream assignment,
// arrival interleaving, and injected faults change timing but never
// outputs. Two runs of the same request trace therefore return
// bit-identical per-request results even though batch boundaries differ.
//
// Admission control never stalls a caller: a full queue rejects with
// ErrOverloaded immediately, and every admitted request is answered
// exactly once (a result, its error, or ErrDeadlineExceeded) — requests
// are never dropped silently.
package serve

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"comp/internal/interp"
	"comp/internal/runtime"
	"comp/internal/sim/engine"
	"comp/internal/sim/fault"
	"comp/internal/sim/metrics"
	"comp/internal/tune"
	"comp/internal/vm"
)

// Typed admission-control errors.
var (
	// ErrOverloaded rejects a submission because the admission queue is
	// full. The caller sees it immediately — shedding never blocks.
	ErrOverloaded = errors.New("serve: overloaded: admission queue full")
	// ErrDeadlineExceeded answers an admitted request whose deadline passed
	// while it waited in the queue.
	ErrDeadlineExceeded = errors.New("serve: deadline exceeded while queued")
	// ErrClosed rejects submissions after Close.
	ErrClosed = errors.New("serve: server closed")
	// ErrInvalidJob rejects a malformed Job at submission, before it is
	// admitted — an empty job, an inline source without a cache key, or a
	// negative deadline would otherwise fail deep inside the planner.
	// Returned errors wrap it; match with errors.Is.
	ErrInvalidJob = errors.New("serve: invalid job")
)

// Config assembles a server.
type Config struct {
	// Runtime is the simulated platform; nil means runtime.DefaultConfig
	// with tracing disabled (server-level metrics come from the serving
	// layer, not per-run span streams).
	Runtime *runtime.Config
	// Streams is the device-stream count each batch runs on (default 4).
	Streams int
	// QueueDepth bounds the admission queue (default 64). Submissions
	// beyond it shed with ErrOverloaded.
	QueueDepth int
	// MaxBatch caps how many queued requests one Scheduler run executes
	// (default QueueDepth).
	MaxBatch int
	// Planner is the plan cache; nil creates a private one. Share a
	// Planner across servers to warm one cache for a fleet.
	Planner *Planner
	// Tune switches plan building to the unified cost-model pipeline
	// search (internal/tune): candidate pipeline orderings and block
	// counts are priced by the cost model and only the top candidates are
	// probed, with the decision recorded in the plan's remark trail. Plan
	// cache keys gain a "|tuned" marker so tuned and legacy plans never
	// alias. Enabling it on any server sharing a Planner enables it for
	// all of them (first enable wins).
	Tune bool
	// TuneModel seeds the tuner's learned predictor and accumulates every
	// decision made while serving; nil starts an empty private model.
	// Only read when Tune is set.
	TuneModel *tune.Model
	// Clock, when non-nil, replaces time.Now for every timestamp the
	// server takes (enqueue times, deadline checks, completion times).
	// Trace replay injects a virtual clock here so deadlines and latency
	// histograms become a deterministic function of the trace instead of
	// wall-clock scheduling noise.
	Clock func() time.Time
	// Stepped disables the background dispatcher: batches run only when
	// the owner calls StepBatch, one batch per call, synchronously on the
	// caller's goroutine. Combined with Clock this makes batch composition
	// — and therefore every figure in the ServerReport — bit-identical
	// across replays of the same submission sequence.
	Stepped bool
	// Exec picks the execution engine for every request program this
	// server runs (see vm.Apply): "" or vm.ExecVM for bytecode,
	// vm.ExecColumnar for the batch tier, vm.ExecInterp for the
	// tree-walker. Plan-build probes always run the VM.
	Exec string
}

// Job is one client request.
type Job struct {
	// Workload names a registry benchmark (workloads.Get) to serve. Leave
	// empty for inline-source jobs.
	Workload string
	// Source is an inline MiniC program; Key must then name the plan-cache
	// entry (two jobs with the same Key share one plan, so the Key must
	// identify the source and its setup).
	Source string
	Key    string
	// Outputs lists the global arrays returned for inline-source jobs
	// (workload jobs report the benchmark's output arrays).
	Outputs []string
	// Optimize runs inline source through the COMP pipeline with a
	// measured-tuned block count when its plan is built.
	Optimize bool
	// Setup overrides the plan's input-injection hook for this request
	// (same plan, different inputs). Nil uses the plan's own.
	Setup func(*interp.Program) error
	// Deadline is the wall-clock budget from submission; a request still
	// queued when it expires is answered with ErrDeadlineExceeded. Zero
	// means no deadline.
	Deadline time.Duration
}

// validate rejects malformed jobs before they are admitted. Every error
// wraps ErrInvalidJob.
func (j Job) validate() error {
	switch {
	case j.Workload == "" && j.Source == "" && j.Key == "":
		return fmt.Errorf("%w: names neither a workload nor an inline source", ErrInvalidJob)
	case j.Source == "" && j.Workload == "" && j.Key != "":
		return fmt.Errorf("%w: key %q has no source and no workload", ErrInvalidJob, j.Key)
	case j.Source != "" && j.Key == "":
		return fmt.Errorf("%w: inline source requires a plan-cache Key", ErrInvalidJob)
	case j.Source != "" && j.Workload != "":
		return fmt.Errorf("%w: names both workload %q and an inline source", ErrInvalidJob, j.Workload)
	case j.Deadline < 0:
		return fmt.Errorf("%w: negative deadline %v", ErrInvalidJob, j.Deadline)
	}
	return nil
}

// Response is one served request's result.
type Response struct {
	// Label is the server-assigned request id inside its batch run.
	Label string
	// Plan identifies the plan that served the request; PlanCached reports
	// whether it was reused (true for every request after a key's first).
	PlanKey    string
	PlanCached bool
	// Blocks is the plan's tuned streaming block count (0 = non-streaming).
	Blocks int
	// Outputs holds the program's output arrays by name, copied out of the
	// executed instance.
	Outputs map[string][]float64
	// QueueWaitSim is the request's simulated-time wait behind earlier
	// requests on its stream; StreamID the stream it ran on.
	QueueWaitSim engine.Duration
	StreamID     int
	// BatchSize is how many requests shared the scheduler run.
	BatchSize int
	// Latency is the wall-clock submit→response time.
	Latency time.Duration
	// Retries and Fallbacks are the request's fault-recovery footprint:
	// reissued operations and degradation-ladder steps its scheduler run
	// recorded for it (0 on fault-free runs).
	Retries   int64
	Fallbacks int
}

// pending is one admitted request waiting for its batch.
type pending struct {
	job      Job
	label    string
	enqueued time.Time
	deadline time.Time // zero = none
	resp     chan outcome
}

type outcome struct {
	resp Response
	err  error
}

// fail answers a pending request with an error. Each pending is answered
// exactly once; resp is buffered so the dispatcher never blocks on a
// caller.
func (p *pending) fail(err error) { p.resp <- outcome{err: err} }

// Server is the long-running offload service. Submissions (Do) are safe
// from any number of goroutines; a single dispatcher goroutine drains the
// admission queue into batched Scheduler runs.
type Server struct {
	cfg     Config
	clock   func() time.Time
	planner *Planner
	queue   chan *pending
	quit    chan struct{}
	wg      sync.WaitGroup

	// rtCfg is the simulated platform; rtMu guards it because SetFaults
	// may retarget the fault schedule between batches.
	rtMu  sync.Mutex
	rtCfg runtime.Config

	mu     sync.Mutex
	closed bool
	nextID int64

	// admitLimit, when ≥ 0, caps the admitted queue depth below the
	// channel's capacity — the runtime knob behind queue-capacity-squeeze
	// scenarios. -1 means the full QueueDepth.
	admitLimit int64

	// Counters (atomics; the slices under statsMu).
	submitted int64
	admitted  int64
	completed int64
	failed    int64
	shed      int64
	expired   int64
	invalid   int64
	batches   int64
	maxDepth  int64
	maxBatch  int64
	// Fault-recovery totals accumulated from every batch's SchedStats.
	faultsInjected int64
	retries        int64
	watchdogFires  int64
	fallbacks      int64
	// simBusy sums the simulated makespan of every batch this server ran.
	// Batches on one device are sequential, so the sum is the device's
	// simulated busy time — the deterministic per-device makespan figure
	// the fleet layer rolls up.
	simBusy int64

	statsMu    sync.Mutex
	latencies  []int64
	queueWaits []int64
	batchSizes []int64

	// testHoldBatch, when set by tests, stalls the dispatcher at the top of
	// every batch until the channel yields — the hook that makes overload
	// and deadline behavior deterministic to test.
	testHoldBatch chan struct{}
}

// New validates the configuration and starts the dispatcher.
func New(cfg Config) (*Server, error) {
	if cfg.Streams == 0 {
		cfg.Streams = 4
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 64
	}
	if cfg.QueueDepth < 0 || cfg.Streams < 0 || cfg.MaxBatch < 0 {
		return nil, fmt.Errorf("serve: negative Config value")
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = cfg.QueueDepth
	}
	rtCfg := runtime.DefaultConfig()
	rtCfg.DisableTrace = true
	if cfg.Runtime != nil {
		rtCfg = *cfg.Runtime
	}
	// Validate platform and partition up front, not on the first batch.
	if _, err := runtime.NewScheduler(rtCfg, cfg.Streams); err != nil {
		return nil, err
	}
	planner := cfg.Planner
	if planner == nil {
		planner = NewPlanner()
	}
	if cfg.Tune {
		planner.EnableTune(cfg.TuneModel)
	}
	s := &Server{
		cfg:        cfg,
		clock:      cfg.Clock,
		rtCfg:      rtCfg,
		planner:    planner,
		queue:      make(chan *pending, cfg.QueueDepth),
		quit:       make(chan struct{}),
		admitLimit: -1,
	}
	if s.clock == nil {
		s.clock = time.Now
	}
	if !cfg.Stepped {
		s.wg.Add(1)
		go s.dispatch()
	}
	return s, nil
}

// now reads the server's clock (time.Now unless Config.Clock was set).
func (s *Server) now() time.Time { return s.clock() }

// SetFaults swaps the fault schedule used by every subsequent batch; it
// validates the schedule and never disturbs batches already running.
// Scenario replay uses it for fault storms and device unplug/replug
// windows; it is safe to call concurrently with submissions.
func (s *Server) SetFaults(fc fault.Config) error {
	if err := fc.Validate(); err != nil {
		return err
	}
	s.rtMu.Lock()
	s.rtCfg.Faults = fc
	s.rtMu.Unlock()
	return nil
}

// Faults returns the currently configured fault schedule.
func (s *Server) Faults() fault.Config {
	s.rtMu.Lock()
	defer s.rtMu.Unlock()
	return s.rtCfg.Faults
}

// SetAdmitLimit caps the admitted queue depth below QueueDepth — the
// queue-capacity-squeeze knob: submissions beyond the limit shed with
// ErrOverloaded exactly as if the queue were that small. A negative limit
// restores the full capacity. Requests already queued are unaffected.
func (s *Server) SetAdmitLimit(n int) {
	if n < 0 {
		n = -1
	}
	atomic.StoreInt64(&s.admitLimit, int64(n))
}

// Planner returns the server's plan cache.
func (s *Server) Planner() *Planner { return s.planner }

// Depth reports how many admitted requests are waiting in the queue right
// now. It is a load signal, not a synchronized snapshot: the fleet router
// reads it to pick the least-loaded device when a primary's queue grows
// past the work-stealing threshold.
func (s *Server) Depth() int { return len(s.queue) }

// Ticket is an admitted request's claim on its eventual answer. Wait
// consumes the answer; it may be called at most once.
type Ticket struct {
	label string
	resp  chan outcome
}

// Label returns the server-assigned request id.
func (t *Ticket) Label() string { return t.label }

// Wait blocks until the ticket's request is served and returns its
// response or error. Exactly one Wait per ticket.
func (t *Ticket) Wait() (Response, error) {
	out := <-t.resp
	return out.resp, out.err
}

// Do submits a job and blocks until it is served. It returns
// ErrInvalidJob for malformed jobs, ErrOverloaded immediately when the
// admission queue is full, ErrClosed after Close, and ErrDeadlineExceeded
// if the job's deadline passed while it was queued. Safe for concurrent
// use.
func (s *Server) Do(job Job) (Response, error) {
	t, err := s.Enqueue(job)
	if err != nil {
		return Response{}, err
	}
	return t.Wait()
}

// Enqueue is the non-blocking half of Do: it validates and admits the job
// and returns a Ticket for the answer, or the typed admission error
// (ErrInvalidJob, ErrOverloaded, ErrClosed) immediately. Admission outcome
// is known synchronously, which is what lets a trace replayer submit a
// request sequence with a deterministic queue order. Safe for concurrent
// use.
func (s *Server) Enqueue(job Job) (*Ticket, error) {
	atomic.AddInt64(&s.submitted, 1)
	if err := job.validate(); err != nil {
		atomic.AddInt64(&s.invalid, 1)
		return nil, err
	}
	p := &pending{job: job, enqueued: s.now(), resp: make(chan outcome, 1)}
	if job.Deadline > 0 {
		p.deadline = p.enqueued.Add(job.Deadline)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	if limit := atomic.LoadInt64(&s.admitLimit); limit >= 0 && int64(len(s.queue)) >= limit {
		s.mu.Unlock()
		atomic.AddInt64(&s.shed, 1)
		return nil, ErrOverloaded
	}
	s.nextID++
	p.label = fmt.Sprintf("r%08d", s.nextID)
	select {
	case s.queue <- p:
		depth := int64(len(s.queue))
		s.mu.Unlock()
		atomic.AddInt64(&s.admitted, 1)
		for {
			max := atomic.LoadInt64(&s.maxDepth)
			if depth <= max || atomic.CompareAndSwapInt64(&s.maxDepth, max, depth) {
				break
			}
		}
	default:
		s.mu.Unlock()
		atomic.AddInt64(&s.shed, 1)
		return nil, ErrOverloaded
	}
	return &Ticket{label: p.label, resp: p.resp}, nil
}

// Close stops admissions, serves every already-queued request, and waits
// for the dispatcher to finish. On a stepped server the remaining queue is
// drained synchronously. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	s.mu.Unlock()
	close(s.quit)
	s.wg.Wait()
	if s.cfg.Stepped {
		for s.stepOne() > 0 {
		}
	}
}

// StepBatch collects and runs exactly one batch on the caller's goroutine
// and returns how many requests it answered (0 when the queue is empty).
// Only valid on a server built with Config.Stepped; the caller is the
// dispatcher, so StepBatch must not be called concurrently with itself or
// with Close.
func (s *Server) StepBatch() int {
	if !s.cfg.Stepped {
		panic("serve: StepBatch on a server without Config.Stepped")
	}
	return s.stepOne()
}

// stepOne drains and runs one batch if anything is queued.
func (s *Server) stepOne() int {
	select {
	case p := <-s.queue:
		batch := s.drainBatch(p)
		s.runBatch(batch)
		return len(batch)
	default:
		return 0
	}
}

// dispatch is the single consumer of the admission queue. After quit it
// drains what was admitted before Close and exits — queued requests are
// served, never dropped.
func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		select {
		case p := <-s.queue:
			s.runBatch(s.drainBatch(p))
		case <-s.quit:
			for {
				select {
				case p := <-s.queue:
					s.runBatch(s.drainBatch(p))
				default:
					return
				}
			}
		}
	}
}

// drainBatch greedily collects everything already queued, up to MaxBatch.
func (s *Server) drainBatch(first *pending) []*pending {
	batch := []*pending{first}
	for len(batch) < s.cfg.MaxBatch {
		select {
		case p := <-s.queue:
			batch = append(batch, p)
		default:
			return batch
		}
	}
	return batch
}

// runBatch plans, compiles and executes one batch as a single Scheduler
// run, then answers every request in it.
func (s *Server) runBatch(batch []*pending) {
	if s.testHoldBatch != nil {
		<-s.testHoldBatch
	}
	atomic.AddInt64(&s.batches, 1)
	for {
		max := atomic.LoadInt64(&s.maxBatch)
		if int64(len(batch)) <= max || atomic.CompareAndSwapInt64(&s.maxBatch, max, int64(len(batch))) {
			break
		}
	}

	// Snapshot the platform config once per batch: SetFaults may swap the
	// fault schedule between batches but never inside one.
	s.rtMu.Lock()
	rtCfg := s.rtCfg
	s.rtMu.Unlock()

	// Shed expired requests before spending any work on them.
	now := s.now()
	live := make([]*pending, 0, len(batch))
	for _, p := range batch {
		if !p.deadline.IsZero() && now.After(p.deadline) {
			atomic.AddInt64(&s.expired, 1)
			p.fail(ErrDeadlineExceeded)
			continue
		}
		live = append(live, p)
	}
	if len(live) == 0 {
		return
	}

	// Resolve plans (cache hits are free; first use per key tunes) and
	// compile one fresh program per request.
	type item struct {
		p      *pending
		plan   *Plan
		cached bool
		prog   *interp.Program
	}
	items := make([]item, 0, len(live))
	for _, p := range live {
		plan, cached, err := s.planner.planFor(p.job, rtCfg)
		if err != nil {
			atomic.AddInt64(&s.failed, 1)
			p.fail(err)
			continue
		}
		prog, err := interp.Compile(plan.Source)
		if err != nil {
			atomic.AddInt64(&s.failed, 1)
			p.fail(fmt.Errorf("serve: plan %s compile: %w", plan.Key, err))
			continue
		}
		if err := vm.Apply(prog, s.cfg.Exec); err != nil {
			atomic.AddInt64(&s.failed, 1)
			p.fail(fmt.Errorf("serve: plan %s: %w", plan.Key, err))
			continue
		}
		items = append(items, item{p: p, plan: plan, cached: cached, prog: prog})
	}
	if len(items) == 0 {
		return
	}

	failAll := func(err error) {
		for _, it := range items {
			atomic.AddInt64(&s.failed, 1)
			it.p.fail(err)
		}
	}
	sched, err := runtime.NewScheduler(rtCfg, s.cfg.Streams)
	if err != nil {
		failAll(err)
		return
	}
	for _, it := range items {
		setup := it.p.job.Setup
		if setup == nil {
			setup = it.plan.setup
		}
		sched.Submit(runtime.Request{Label: it.p.label, Program: it.prog, Setup: setup})
	}
	res, err := sched.Run()
	if err != nil {
		failAll(err)
		return
	}
	byLabel := make(map[string]runtime.RequestStats, len(res.Stats.Requests))
	var fellBack int64
	for _, rq := range res.Stats.Requests {
		byLabel[rq.Label] = rq
		fellBack += int64(len(rq.Fallbacks))
	}
	atomic.AddInt64(&s.faultsInjected, res.Stats.FaultsInjected)
	atomic.AddInt64(&s.retries, res.Stats.Retries)
	atomic.AddInt64(&s.watchdogFires, res.Stats.WatchdogFires)
	atomic.AddInt64(&s.fallbacks, fellBack)
	atomic.AddInt64(&s.simBusy, int64(res.Stats.Time))

	done := s.now()
	for _, it := range items {
		outputs := make(map[string][]float64, len(it.plan.Outputs))
		var outErr error
		for _, name := range it.plan.Outputs {
			data, err := it.prog.ArrayData(name)
			if err != nil {
				outErr = err
				break
			}
			outputs[name] = append([]float64(nil), data...)
		}
		if outErr != nil {
			atomic.AddInt64(&s.failed, 1)
			it.p.fail(outErr)
			continue
		}
		rq := byLabel[it.p.label]
		resp := Response{
			Label:        it.p.label,
			PlanKey:      it.plan.Key,
			PlanCached:   it.cached,
			Blocks:       it.plan.Blocks,
			Outputs:      outputs,
			QueueWaitSim: rq.QueueWait,
			StreamID:     rq.StreamID,
			BatchSize:    len(items),
			Latency:      done.Sub(it.p.enqueued),
			Retries:      rq.Retries,
			Fallbacks:    len(rq.Fallbacks),
		}
		atomic.AddInt64(&s.completed, 1)
		s.statsMu.Lock()
		s.latencies = append(s.latencies, int64(resp.Latency))
		s.queueWaits = append(s.queueWaits, int64(rq.QueueWait))
		s.statsMu.Unlock()
		it.p.resp <- outcome{resp: resp}
	}
	s.statsMu.Lock()
	s.batchSizes = append(s.batchSizes, int64(len(items)))
	s.statsMu.Unlock()
}

// Report snapshots the server-level metrics as a metrics.ServerReport.
func (s *Server) Report() metrics.ServerReport {
	hits, misses, probes := s.planner.Stats()
	rep := metrics.ServerReport{
		Submitted:     atomic.LoadInt64(&s.submitted),
		Admitted:      atomic.LoadInt64(&s.admitted),
		Completed:     atomic.LoadInt64(&s.completed),
		Failed:        atomic.LoadInt64(&s.failed),
		Shed:          atomic.LoadInt64(&s.shed),
		Expired:       atomic.LoadInt64(&s.expired),
		Invalid:       atomic.LoadInt64(&s.invalid),
		Batches:       atomic.LoadInt64(&s.batches),
		MaxBatch:      int(atomic.LoadInt64(&s.maxBatch)),
		QueueCapacity: s.cfg.QueueDepth,
		QueueDepth:    len(s.queue),
		MaxQueueDepth: int(atomic.LoadInt64(&s.maxDepth)),
		PlanHits:      hits,
		PlanMisses:    misses,
		TuneProbes:    probes,

		FaultsInjected: atomic.LoadInt64(&s.faultsInjected),
		Retries:        atomic.LoadInt64(&s.retries),
		WatchdogFires:  atomic.LoadInt64(&s.watchdogFires),
		Fallbacks:      atomic.LoadInt64(&s.fallbacks),
		SimBusyNs:      atomic.LoadInt64(&s.simBusy),
	}
	if total := hits + misses; total > 0 {
		rep.PlanHitRatio = float64(hits) / float64(total)
	}
	rep.Plans = s.planner.Explain()
	for _, p := range rep.Plans {
		rep.Passes = metrics.MergePassCounts(rep.Passes, metrics.PassCounts(p.Remarks))
	}
	s.statsMu.Lock()
	rep.Latency = metrics.HistogramOf(s.latencies)
	rep.QueueWaitSim = metrics.HistogramOf(s.queueWaits)
	rep.BatchSizes = metrics.HistogramOf(s.batchSizes)
	s.statsMu.Unlock()
	return rep
}
