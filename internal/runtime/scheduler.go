package runtime

import (
	"fmt"
	"sort"
	"sync"

	"comp/internal/interp"
	"comp/internal/sim/devmem"
	"comp/internal/sim/engine"
	"comp/internal/sim/fault"
	"comp/internal/sim/kernel"
	"comp/internal/sim/machine"
	"comp/internal/sim/pcie"
)

// streamSeedStride separates per-stream fault schedules: stream i draws from
// Seed + i·stride, so one stream's request mix never perturbs another
// stream's injected faults.
const streamSeedStride = 1009

// Request is one offload job handed to the Scheduler.
type Request struct {
	// Label identifies the request in stats and traces. Determinism across
	// submission interleavings requires labels to be distinct: requests are
	// ordered by (Label, submission index), so duplicate labels submitted
	// concurrently may swap places between runs.
	Label   string
	Program *interp.Program
	// Setup is applied after Program.Reset and before execution (workloads
	// inject generated inputs here). May be nil.
	Setup func(*interp.Program) error
}

// RequestStats describes one request's journey through the scheduler.
type RequestStats struct {
	// ID is the request's rank in the deterministic (Label, arrival) order.
	ID    int
	Label string
	// StreamID is the stream the request executed on.
	StreamID int
	// QueueWait is how long the request sat behind earlier requests on its
	// stream before its first operation could start.
	QueueWait engine.Duration
	// Start and End bound the request's execution window.
	Start engine.Time
	End   engine.Time
	// Per-request resilience and correctness diagnostics, as in Stats.
	RaceWarnings     []string
	DeadlockWarnings []string
	Retries          int64
	WatchdogFires    int64
	Fallbacks        []string
	FaultWarnings    []string
}

// StreamStats aggregates one stream's share of the device over the run.
type StreamStats struct {
	StreamID int
	// Cores and Threads are the stream's slice of the device.
	Cores   int
	Threads int
	// Requests is how many requests the stream executed.
	Requests int
	// DeviceBusy is the stream's compute-fabric busy time; HostBusy its
	// host thread's.
	DeviceBusy engine.Duration
	HostBusy   engine.Duration
	// Overlap is transfer↔compute overlap for this stream's kernels
	// (shared DMA channels vs this stream's compute resource).
	Overlap engine.Duration
	// QueueWait sums the stream's requests' queue waits.
	QueueWait      engine.Duration
	KernelLaunches int64
	FaultsInjected int64
	Retries        int64
	WatchdogFires  int64
}

// SchedStats summarizes a scheduler run: global figures plus per-stream and
// per-request breakdowns.
type SchedStats struct {
	// Time is the makespan: all requests complete, stalls recovered.
	Time engine.Duration
	// CrossStreamOverlap is the time at least two streams' compute
	// resources were simultaneously busy — the utilization a single
	// pipeline cannot reach, measured online like Stats.Overlap.
	CrossStreamOverlap engine.Duration
	// Shared-resource totals (one PCIe link, one device memory).
	TransferBusy    engine.Duration
	Transfers       int64
	BytesIn         int64
	BytesOut        int64
	PeakDeviceBytes uint64
	// Totals across streams.
	KernelLaunches int64
	FaultsInjected int64
	Retries        int64
	WatchdogFires  int64

	Streams  []StreamStats
	Requests []RequestStats
}

// SchedResult bundles a scheduler run's stats with its execution trace
// (empty when Config.DisableTrace is set).
type SchedResult struct {
	Stats SchedStats
	Trace *engine.Trace
}

// Scheduler multiplexes many concurrent offload requests onto N device
// streams.
//
// The single-program runtime executes one offload pipeline at a time: a
// memory-bound kernel occupying all cores leaves compute throughput idle
// past the bandwidth-saturation knee, and every host segment leaves the
// whole card idle. The Scheduler closes that gap the way Li et al. and
// Zhang et al. partition the MIC: the device's cores are split into N
// core-disjoint streams (machine.Config.Partition), each with its own
// persistent-kernel launcher and host thread, while the PCIe DMA channels
// and device memory stay shared and are arbitrated FIFO across streams.
// Requests may be submitted from many host threads; execution itself is a
// deterministic function of the submitted set, not of submission timing.
// Each request should carry its own Program instance — execution happens
// at graph-construction time, so sharing one Program across requests
// overwrites its outputs.
//
// Submit is safe for concurrent use; Run executes the accumulated batch.
type Scheduler struct {
	cfg     Config
	streams int

	mu   sync.Mutex
	reqs []Request
	ran  bool
}

// NewScheduler validates the platform config and stream count. The device
// engaged by cfg.MICThreads must have at least one whole core per stream.
func NewScheduler(cfg Config, streams int) (*Scheduler, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if _, err := cfg.MIC.Partition(cfg.MICThreads, streams); err != nil {
		return nil, err
	}
	return &Scheduler{cfg: cfg, streams: streams}, nil
}

// Streams returns the configured stream count.
func (s *Scheduler) Streams() int { return s.streams }

// Submit queues one request. Safe to call from many goroutines; the final
// schedule depends only on the set of (distinct) labels, not on timing.
func (s *Scheduler) Submit(req Request) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ran {
		panic("runtime: Submit after Run")
	}
	s.reqs = append(s.reqs, req)
}

// stream is the per-stream slice of the shared platform.
type stream struct {
	id       int
	share    machine.Share
	launcher *kernel.Launcher
	host     *engine.Resource
	ovIn     *engine.OverlapMeter
	ovOut    *engine.OverlapMeter
	inj      *fault.Injector
	tail     *engine.Event // completion of the stream's last queued request
	requests int
	queued   engine.Duration
	retries  int64
	watchdog int64
}

// Run executes every submitted request and returns the collected stats.
// It must be called exactly once, after all Submits.
func (s *Scheduler) Run() (SchedResult, error) {
	res, _, err := s.run()
	return res, err
}

// run is Run that also returns each request's drained runtime, indexed like
// SchedStats.Requests, so tests can check the post-run analyses against the
// intervals they scanned.
func (s *Scheduler) run() (SchedResult, []*Runtime, error) {
	s.mu.Lock()
	reqs := append([]Request(nil), s.reqs...)
	s.ran = true
	s.mu.Unlock()

	// Deterministic order regardless of submission interleaving.
	order := make([]int, len(reqs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return reqs[order[a]].Label < reqs[order[b]].Label
	})

	shares, err := s.cfg.MIC.Partition(s.cfg.MICThreads, s.streams)
	if err != nil {
		return SchedResult{}, nil, err
	}

	sim := engine.New()
	if s.cfg.DisableTrace {
		sim.Trace().SetEnabled(false)
	}
	bus := pcie.New(sim, s.cfg.PCIe)
	memBytes := s.cfg.MIC.MemBytes
	if memBytes == 0 {
		memBytes = 8 << 30
	}
	mem := devmem.New(memBytes, s.cfg.MIC.OSReservedBytes)
	mem.SetTrace(sim.Trace(), sim.Now)
	rec := s.cfg.Recovery.resolve()

	streams := make([]*stream, s.streams)
	computes := make([]*engine.Resource, s.streams)
	for i := range streams {
		st := &stream{
			id:       i,
			share:    shares[i],
			launcher: kernel.NewLauncherOn(sim, fmt.Sprintf("mic-s%d", i), s.cfg.MIC.LaunchOverhead),
			tail:     sim.FiredEvent(),
		}
		st.host = sim.NewResource(fmt.Sprintf("cpu-s%d", i), 1)
		st.host.SetCategory(engine.CatHost)
		// Meters are created before any submission, like in New.
		st.ovIn = sim.MeterOverlap(bus.Resource(pcie.HostToDevice), st.launcher.Resource())
		st.ovOut = sim.MeterOverlap(bus.Resource(pcie.DeviceToHost), st.launcher.Resource())
		if s.cfg.Faults.Enabled() {
			fcfg := s.cfg.Faults
			fcfg.Seed += int64(i) * streamSeedStride
			st.inj = fault.New(fcfg)
			st.inj.SetTrace(sim.Trace(), sim.Now)
			st.launcher.SetFaults(st.inj, rec.watchdog)
		}
		streams[i] = st
		computes[i] = st.launcher.Resource()
	}
	cross := sim.MeterConcurrency(2, computes...)

	// Build every request's event graph sequentially in deterministic
	// order; the simulation executes the whole batch afterwards. The shared
	// bus and memory consult the constructing request's injector, so each
	// stream's fault schedule is independent of the others' request mix.
	rts := make([]*Runtime, len(reqs))
	gates := make([]*engine.Event, len(reqs))
	for rank, idx := range order {
		req := reqs[idx]
		st := streams[rank%s.streams]
		gate := st.tail
		gates[rank] = gate
		bus.SetInjector(st.inj)
		mem.SetInjector(st.inj)
		rt := newOnStream(s.cfg, streamParts{
			sim:        sim,
			bus:        bus,
			mem:        mem,
			launcher:   st.launcher,
			host:       st.host,
			mic:        st.share.Config,
			micThreads: st.share.Threads,
			inj:        st.inj,
			dmaArgs:    map[string]any{"stream": int64(st.id)},
			after:      gate,
		})
		if err := req.Program.Reset(); err != nil {
			return SchedResult{}, nil, fmt.Errorf("request %q: %w", req.Label, err)
		}
		if req.Setup != nil {
			if err := req.Setup(req.Program); err != nil {
				return SchedResult{}, nil, fmt.Errorf("request %q: %w", req.Label, err)
			}
		}
		if err := req.Program.Run(rt); err != nil {
			return SchedResult{}, nil, fmt.Errorf("request %q: %w", req.Label, err)
		}
		rt.closeGraph()
		st.tail = rt.hostTail
		st.requests++
		rts[rank] = rt
	}

	end := sim.Run()
	for _, rt := range rts {
		end = rt.settle(end)
	}

	stats := SchedStats{
		Time:               engine.Duration(end),
		CrossStreamOverlap: cross.Total(),
		TransferBusy:       bus.BusyTime(pcie.HostToDevice) + bus.BusyTime(pcie.DeviceToHost),
		Transfers:          bus.TotalTransfers(),
		BytesIn:            bus.BytesMoved(pcie.HostToDevice),
		BytesOut:           bus.BytesMoved(pcie.DeviceToHost),
		PeakDeviceBytes:    mem.Peak(),
		Requests:           make([]RequestStats, len(reqs)),
	}
	for rank, idx := range order {
		rt := rts[rank]
		st := streams[rank%s.streams]
		rq := RequestStats{
			ID:               rank,
			Label:            reqs[idx].Label,
			StreamID:         st.id,
			RaceWarnings:     rt.detectRaces(),
			DeadlockWarnings: rt.detectDeadlocks(),
			Retries:          rt.retries,
			WatchdogFires:    rt.watchdogFires,
			Fallbacks:        truncateWarnings(rt.fallbacks),
			FaultWarnings:    truncateWarnings(rt.faultWarns),
		}
		if gates[rank].Fired() {
			rq.Start = gates[rank].Time()
			rq.QueueWait = engine.Duration(rq.Start)
		}
		if rt.hostTail.Fired() {
			rq.End = rt.hostTail.Time()
		} else {
			rq.End = end
		}
		st.queued += rq.QueueWait
		st.retries += rq.Retries
		st.watchdog += rq.WatchdogFires
		stats.Requests[rank] = rq
		stats.Retries += rq.Retries
		stats.WatchdogFires += rq.WatchdogFires
	}
	for _, st := range streams {
		ss := StreamStats{
			StreamID:       st.id,
			Cores:          st.share.Cores,
			Threads:        st.share.Threads,
			Requests:       st.requests,
			DeviceBusy:     st.launcher.ComputeBusy(),
			HostBusy:       st.host.BusyTime(),
			Overlap:        st.ovIn.Total() + st.ovOut.Total(),
			QueueWait:      st.queued,
			KernelLaunches: st.launcher.Launches(),
			Retries:        st.retries,
			WatchdogFires:  st.watchdog,
		}
		if st.inj != nil {
			ss.FaultsInjected = st.inj.Injected()
		}
		stats.Streams = append(stats.Streams, ss)
		stats.KernelLaunches += ss.KernelLaunches
		stats.FaultsInjected += ss.FaultsInjected
	}
	return SchedResult{Stats: stats, Trace: sim.Trace()}, rts, nil
}
