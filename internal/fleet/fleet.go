package fleet

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"comp/internal/runtime"
	"comp/internal/serve"
	"comp/internal/sim/fault"
	"comp/internal/sim/machine"
	"comp/internal/sim/metrics"
	"comp/internal/tune"
)

// ErrNoDevices rejects a submission when every device in the fleet has
// been lost: the router never drops a request silently — with no healthy
// target it answers immediately with this typed error.
var ErrNoDevices = errors.New("fleet: no healthy devices")

// DeviceConfig describes one device of the fleet: a serve.Server over its
// own simulated platform.
type DeviceConfig struct {
	// ID is the device's stable fleet-wide identity (e.g. "h0/d1"). Ring
	// placement hashes it, so renaming a device moves its keys.
	ID string
	// Runtime is the device's simulated platform; nil means
	// runtime.DefaultConfig with tracing disabled. Heterogeneous fleets mix
	// machine configs here — the machine names become the device's
	// signature, the plan-affinity class work stealing respects.
	Runtime *runtime.Config
	// Streams, QueueDepth, MaxBatch configure the device's server exactly
	// as serve.Config does (defaults 4 / 64 / QueueDepth).
	Streams    int
	QueueDepth int
	MaxBatch   int
}

// Config assembles a fleet.
type Config struct {
	// Devices lists the fleet members; at least one is required.
	Devices []DeviceConfig
	// Replicas is the virtual-node count per device on the hash ring
	// (0 = DefaultReplicas).
	Replicas int
	// StealThreshold is the queue depth at which the router redirects a
	// primary's request to the least-loaded same-signature device. 0 means
	// half the primary's queue depth (at least 1); negative disables
	// stealing entirely.
	StealThreshold int
	// Planner is the shared compiled-plan registry; nil creates one shared
	// by every device in this fleet. Plans are keyed by (job, machine), so
	// same-signature devices — including a thief serving a stolen request —
	// reuse each other's plans without recompiling.
	Planner *serve.Planner
	// Clock and Stepped mirror serve.Config: a virtual clock plus stepped
	// batch execution make the whole fleet rollup a deterministic function
	// of the submission trace. Replay sets both.
	Clock   func() time.Time
	Stepped bool
	// Exec picks the execution engine for every device, as
	// serve.Config.Exec ("" = the VM).
	Exec string
	// Tune enables the cost-model pipeline tuner (serve.Config.Tune) on
	// every device. Device signatures gain a "|tuned" marker so work
	// stealing only pairs devices whose plan caches speak the same keys —
	// tuned fleets stay plan-affine.
	Tune bool
	// TuneModel is the shared learned-predictor model for Tune; nil
	// starts an empty model shared by the fleet's planner.
	TuneModel *tune.Model
}

// device is one fleet member at runtime.
type device struct {
	id    string
	sig   string // MIC.Name|CPU.Name: the plan-affinity class
	srv   *serve.Server
	queue int // resolved admission-queue capacity (threshold basis)
	lost  bool
}

// Placement records one routing decision.
type Placement struct {
	// Device is where the request went; Owner its ring owner among healthy
	// devices at decision time.
	Device string
	Owner  string
	// Stolen reports that queue pressure redirected the request off its
	// healthy owner to a same-signature peer. Rerouted reports that the
	// key's all-time ring owner was lost, so consistent hashing had already
	// moved the key before load was considered.
	Stolen   bool
	Rerouted bool
}

// Response is one served request's result plus its routing metadata.
type Response struct {
	serve.Response
	Placement
}

// Fleet is the sharded serving layer: a consistent-hash router over N
// per-device servers with a shared compiled-plan registry. Submissions are
// safe from any number of goroutines.
type Fleet struct {
	cfg     Config
	planner *serve.Planner

	mu      sync.Mutex
	live    *Ring // healthy devices only: the routing ring
	full    *Ring // every configured device: detects rerouted keys
	devices map[string]*device
	order   []string // sorted IDs: the deterministic iteration order

	routed, stolen, rerouted, noDevice int64
	lossEvents, restoreEvents          int64
}

// New validates the configuration and starts every device's server.
func New(cfg Config) (*Fleet, error) {
	if len(cfg.Devices) == 0 {
		return nil, fmt.Errorf("fleet: no devices configured")
	}
	planner := cfg.Planner
	if planner == nil {
		planner = serve.NewPlanner()
	}
	f := &Fleet{
		cfg:     cfg,
		planner: planner,
		live:    NewRing(cfg.Replicas),
		full:    NewRing(cfg.Replicas),
		devices: map[string]*device{},
	}
	for _, dc := range cfg.Devices {
		if dc.ID == "" {
			f.closeAll()
			return nil, fmt.Errorf("fleet: device with empty ID")
		}
		if _, dup := f.devices[dc.ID]; dup {
			f.closeAll()
			return nil, fmt.Errorf("fleet: duplicate device ID %q", dc.ID)
		}
		rtCfg := runtime.DefaultConfig()
		rtCfg.DisableTrace = true
		if dc.Runtime != nil {
			rtCfg = *dc.Runtime
		}
		srv, err := serve.New(serve.Config{
			Runtime:    &rtCfg,
			Streams:    dc.Streams,
			QueueDepth: dc.QueueDepth,
			MaxBatch:   dc.MaxBatch,
			Planner:    planner,
			Clock:      cfg.Clock,
			Stepped:    cfg.Stepped,
			Exec:       cfg.Exec,
			Tune:       cfg.Tune,
			TuneModel:  cfg.TuneModel,
		})
		if err != nil {
			f.closeAll()
			return nil, fmt.Errorf("fleet: device %s: %w", dc.ID, err)
		}
		queue := dc.QueueDepth
		if queue == 0 {
			queue = 64 // serve's default
		}
		sig := rtCfg.MIC.Name + "|" + rtCfg.CPU.Name
		if cfg.Tune {
			sig += "|tuned"
		}
		d := &device{
			id:    dc.ID,
			sig:   sig,
			srv:   srv,
			queue: queue,
		}
		f.devices[dc.ID] = d
		f.order = append(f.order, dc.ID)
		if err := f.live.Add(dc.ID); err != nil {
			f.closeAll()
			return nil, err
		}
		if err := f.full.Add(dc.ID); err != nil {
			f.closeAll()
			return nil, err
		}
	}
	sort.Strings(f.order)
	return f, nil
}

// closeAll closes every constructed server (error-path cleanup and Close).
func (f *Fleet) closeAll() {
	for _, id := range f.order {
		f.devices[id].srv.Close()
	}
	// order may not yet include every constructed device on the error path.
	seen := map[string]bool{}
	for _, id := range f.order {
		seen[id] = true
	}
	for id, d := range f.devices {
		if !seen[id] {
			d.srv.Close()
		}
	}
}

// baseKey derives the routing key for a job: the plan-cache base the
// per-device planner will use. Invalid jobs (no key at all) route to the
// first healthy device, whose server answers with its typed ErrInvalidJob.
func baseKey(job serve.Job) string {
	if job.Key != "" {
		return job.Key
	}
	return job.Workload
}

// stealThreshold resolves the fleet threshold for one primary.
func (f *Fleet) stealThreshold(d *device) int {
	switch {
	case f.cfg.StealThreshold > 0:
		return f.cfg.StealThreshold
	case f.cfg.StealThreshold < 0:
		return 1 << 30 // stealing disabled
	}
	t := d.queue / 2
	if t < 1 {
		t = 1
	}
	return t
}

// route picks the device for one plan key. Caller holds f.mu.
func (f *Fleet) route(key string, count bool) (*device, Placement, error) {
	if f.live.Len() == 0 {
		if count {
			f.noDevice++
		}
		return nil, Placement{}, ErrNoDevices
	}
	var ownerID string
	if key == "" {
		// Invalid job: deterministic fallback, the server rejects it typed.
		for _, id := range f.order {
			if !f.devices[id].lost {
				ownerID = id
				break
			}
		}
	} else {
		ownerID, _ = f.live.Lookup(key)
	}
	owner := f.devices[ownerID]
	pl := Placement{Device: ownerID, Owner: ownerID}
	if key != "" {
		if allTime, ok := f.full.Lookup(key); ok && allTime != ownerID && f.devices[allTime].lost {
			pl.Rerouted = true
		}
	}
	// Work stealing: past the threshold, redirect to the least-loaded
	// healthy device of the same signature (ties broken by ID, so the
	// decision is deterministic for deterministic depths). Same signature
	// means the same plan-cache key: the thief reuses the donor's plan from
	// the shared registry without recompiling — stealing never violates
	// plan-affinity while the donor is healthy.
	if depth := owner.srv.Depth(); depth >= f.stealThreshold(owner) {
		best, bestDepth := owner, depth
		for _, id := range f.order {
			d := f.devices[id]
			if d.lost || d.sig != owner.sig || d == owner {
				continue
			}
			if dd := d.srv.Depth(); dd < bestDepth || (dd == bestDepth && d.id < best.id) {
				best, bestDepth = d, dd
			}
		}
		if best != owner {
			pl.Device = best.id
			pl.Stolen = true
		}
	}
	if count {
		f.routed++
		if pl.Stolen {
			f.stolen++
		}
		if pl.Rerouted {
			f.rerouted++
		}
	}
	return f.devices[pl.Device], pl, nil
}

// RouteFor previews the placement decision for a plan key without
// submitting anything (and without counting it in the router stats).
func (f *Fleet) RouteFor(key string) (Placement, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, pl, err := f.route(key, false)
	return pl, err
}

// Enqueue routes and admits a job, returning the placement and the ticket
// for its answer. Admission errors are typed and synchronous: the chosen
// device's ErrInvalidJob / ErrOverloaded / ErrClosed, or ErrNoDevices when
// the fleet has no healthy member. Safe for concurrent use.
func (f *Fleet) Enqueue(job serve.Job) (Placement, *serve.Ticket, error) {
	f.mu.Lock()
	d, pl, err := f.route(baseKey(job), true)
	f.mu.Unlock()
	if err != nil {
		return Placement{}, nil, err
	}
	t, err := d.srv.Enqueue(job)
	if err != nil {
		return pl, nil, err
	}
	return pl, t, nil
}

// Do submits a job and blocks until it is served.
func (f *Fleet) Do(job serve.Job) (Response, error) {
	pl, t, err := f.Enqueue(job)
	if err != nil {
		return Response{Placement: pl}, err
	}
	resp, err := t.Wait()
	return Response{Response: resp, Placement: pl}, err
}

// FailDevice takes a device off the routing ring: its keys move to their
// ring successors (~K/N of the keyspace), new arrivals never reach it, and
// everything already admitted drains to an answer — device loss is a drain
// and rebalance, never a drop.
func (f *Fleet) FailDevice(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.devices[id]
	if !ok {
		return fmt.Errorf("fleet: unknown device %s", id)
	}
	if d.lost {
		return fmt.Errorf("fleet: device %s already lost", id)
	}
	if err := f.live.Remove(id); err != nil {
		return err
	}
	d.lost = true
	f.lossEvents++
	return nil
}

// RestoreDevice returns a lost device to the ring; its former keys move
// back on the next lookup.
func (f *Fleet) RestoreDevice(id string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.devices[id]
	if !ok {
		return fmt.Errorf("fleet: unknown device %s", id)
	}
	if !d.lost {
		return fmt.Errorf("fleet: device %s is not lost", id)
	}
	if err := f.live.Add(id); err != nil {
		return err
	}
	d.lost = false
	f.restoreEvents++
	return nil
}

// SetDeviceFaults swaps one device's fault schedule (fault storms are
// per-device events in a fleet). Valid on lost devices too: a drain under
// a storm exercises the recovery ladder.
func (f *Fleet) SetDeviceFaults(id string, fc fault.Config) error {
	f.mu.Lock()
	d, ok := f.devices[id]
	f.mu.Unlock()
	if !ok {
		return fmt.Errorf("fleet: unknown device %s", id)
	}
	return d.srv.SetFaults(fc)
}

// Devices returns the fleet member IDs sorted.
func (f *Fleet) Devices() []string { return append([]string(nil), f.order...) }

// Signature returns a device's machine signature (plan-affinity class).
func (f *Fleet) Signature(id string) (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.devices[id]
	if !ok {
		return "", fmt.Errorf("fleet: unknown device %s", id)
	}
	return d.sig, nil
}

// Lost reports whether a device is currently off the ring.
func (f *Fleet) Lost(id string) (bool, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	d, ok := f.devices[id]
	if !ok {
		return false, fmt.Errorf("fleet: unknown device %s", id)
	}
	return d.lost, nil
}

// StepAll runs at most one batch on every device, in ID order, and returns
// how many requests were answered. Only valid on a stepped fleet; like
// serve.StepBatch it must not race itself or Close.
func (f *Fleet) StepAll() int {
	if !f.cfg.Stepped {
		panic("fleet: StepAll on a fleet without Config.Stepped")
	}
	n := 0
	for _, id := range f.order {
		n += f.devices[id].srv.StepBatch()
	}
	return n
}

// Close stops admissions on every device, serves everything already
// queued, and waits for the dispatchers. Safe to call more than once.
func (f *Fleet) Close() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.closeAll()
}

// Planner returns the shared compiled-plan registry.
func (f *Fleet) Planner() *serve.Planner { return f.planner }

// Report snapshots the fleet-wide rollup: per-device ServerReports in ID
// order plus the router accounting and aggregate counters.
func (f *Fleet) Report() metrics.FleetReport {
	f.mu.Lock()
	rep := metrics.FleetReport{
		Routed:        f.routed,
		Stolen:        f.stolen,
		Rerouted:      f.rerouted,
		NoDevice:      f.noDevice,
		LossEvents:    f.lossEvents,
		RestoreEvents: f.restoreEvents,
	}
	type snap struct {
		d    *device
		lost bool
	}
	snaps := make([]snap, 0, len(f.order))
	for _, id := range f.order {
		d := f.devices[id]
		snaps = append(snaps, snap{d: d, lost: d.lost})
	}
	f.mu.Unlock()
	// Per-device reports are taken outside the router lock: Report walks
	// the shared planner, and a concurrent planner build must not block
	// routing.
	for _, s := range snaps {
		rep.Devices = append(rep.Devices, metrics.FleetDeviceReport{
			ID:           s.d.id,
			Signature:    s.d.sig,
			Lost:         s.lost,
			ServerReport: s.d.srv.Report(),
		})
	}
	rep.RollUp()
	return rep
}

// DefaultDevices builds a hosts × perHost fleet of heterogeneous devices:
// even-indexed devices model the paper's Xeon Phi ES2, odd-indexed ones a
// smaller 57-core 3120-class card, so the fleet always exercises both
// plan-affinity classes. IDs are "h<host>/d<device>"; queue is the
// per-device admission depth (0 = serve's default).
func DefaultDevices(hosts, perHost, queue int) []DeviceConfig {
	var out []DeviceConfig
	for h := 0; h < hosts; h++ {
		for d := 0; d < perHost; d++ {
			rtCfg := runtime.DefaultConfig()
			rtCfg.DisableTrace = true
			if (h*perHost+d)%2 == 1 {
				rtCfg.MIC = machine.XeonPhi3120()
			}
			cfgCopy := rtCfg
			out = append(out, DeviceConfig{
				ID:         fmt.Sprintf("h%d/d%d", h, d),
				Runtime:    &cfgCopy,
				QueueDepth: queue,
			})
		}
	}
	return out
}
