// Command compserve drives the offload serving layer (internal/serve) with
// a synthetic client fleet and prints the server metrics report: queue
// depth, shed count, plan-cache hit ratio and latency histograms.
//
// Usage:
//
//	compserve                          # 64 clients × 2 requests over nn+dedup+srad
//	compserve -clients 16 -requests 4  # different fleet shape
//	compserve -workloads nn,srad       # restrict the workload mix
//	compserve -queue 8                 # undersized queue: observe ErrOverloaded shedding
//	compserve -deadline 100ms          # per-request deadlines
//	compserve -verify                  # run the trace twice, assert bit-identical outputs
//	compserve -json report.json        # also dump the metrics report as JSON
//	compserve -fleet                   # shard the trace over a 2×2 multi-device fleet
//	compserve -fleet -hosts 4 -loss    # bigger fleet, with a mid-trace device loss + fault storm
//	compserve -fleet -verify           # stepped double replay: bit-identical outputs AND report
//
// Every value a request computes comes from the deterministic interpreter;
// the simulated platform only assigns timing. compserve -verify exploits
// that: it replays the identical trace against a second fresh server (new
// plan cache, different wall-clock interleaving, different batch
// boundaries) and fails unless every request's output arrays match
// bit-for-bit. Under -fleet the verification is stronger: the replay runs
// on a stepped fleet with a virtual clock, so the full fleet report —
// placements, rejection set, makespan — must match bit-for-bit too.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"comp/internal/fleet"
	"comp/internal/serve"
	"comp/internal/sim/fault"
	"comp/internal/sim/metrics"
	"comp/internal/vm"
	"comp/internal/workloads"
)

// checkExec validates the -exec flag, or writes a one-line usage error
// naming the valid modes to stderr and returns the usage exit code.
func checkExec(mode string, stderr io.Writer) int {
	if err := vm.CheckExecFlag(mode); err != nil {
		fmt.Fprintln(stderr, "compserve:", err)
		return 2
	}
	return 0
}

func main() {
	clients := flag.Int("clients", 64, "concurrent synthetic clients")
	requests := flag.Int("requests", 2, "requests each client submits")
	workloadsFlag := flag.String("workloads", "nn,dedup,srad", "comma-separated workload mix clients draw from round-robin")
	streams := flag.Int("streams", 4, "device streams the server schedules over")
	queue := flag.Int("queue", 0, "admission queue depth (0 = clients × requests, nothing sheds)")
	batch := flag.Int("batch", 0, "max requests per scheduler batch (0 = queue depth)")
	deadline := flag.Duration("deadline", 0, "per-request deadline (0 = none)")
	verify := flag.Bool("verify", false, "replay the trace on a second fresh server and require bit-identical outputs")
	jsonOut := flag.String("json", "", "also write the metrics report as JSON to this file (\"-\" = stdout)")
	execMode := flag.String("exec", vm.ExecVM, "MiniC execution engine: vm, interp, or columnar")
	fleetMode := flag.Bool("fleet", false, "shard the trace over a multi-device fleet (consistent-hash routing + work stealing)")
	hosts := flag.Int("hosts", 2, "simulated hosts for -fleet")
	devices := flag.Int("devices", 2, "devices per host for -fleet")
	steal := flag.Int("steal", 0, "queue depth at which the fleet router steals to a same-signature device (0 = half the queue, negative = off)")
	loss := flag.Bool("loss", false, "fail one device mid-trace under a fault storm, then restore it")
	flag.Parse()

	if code := checkExec(*execMode, os.Stderr); code != 0 {
		os.Exit(code)
	}

	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "compserve: unexpected argument %q\n", flag.Arg(0))
		usage()
		os.Exit(2)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlagDeps(*fleetMode, set); err != nil {
		fmt.Fprintln(os.Stderr, "compserve:", err)
		usage()
		os.Exit(2)
	}
	mix, err := parseMix(*workloadsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compserve:", err)
		usage()
		os.Exit(2)
	}
	if err := validateShape(*clients, *requests, *streams, *queue, *batch, *deadline); err != nil {
		fmt.Fprintln(os.Stderr, "compserve:", err)
		usage()
		os.Exit(2)
	}
	if *fleetMode {
		if err := validateFleetShape(*hosts, *devices, *loss); err != nil {
			fmt.Fprintln(os.Stderr, "compserve:", err)
			usage()
			os.Exit(2)
		}
		if err := runFleetMode(mix, *execMode, *hosts, *devices, *streams, *queue, *batch, *steal,
			*clients, *requests, *deadline, *loss, *verify, *jsonOut); err != nil {
			fail(err)
		}
		return
	}
	depth := *queue
	if depth == 0 {
		depth = *clients * *requests
	}

	srvCfg := serve.Config{Streams: *streams, QueueDepth: depth, MaxBatch: *batch, Exec: *execMode}
	rep, outs, err := runFleet(mix, srvCfg, *clients, *requests, *deadline)
	if err != nil {
		fail(err)
	}
	fmt.Print(rep.Format())

	if *verify {
		rep2, outs2, err := runFleet(mix, srvCfg, *clients, *requests, *deadline)
		if err != nil {
			fail(fmt.Errorf("verify replay: %w", err))
		}
		mismatches := 0
		compared := 0
		for id, a := range outs {
			b, ok := outs2[id]
			if !ok {
				continue // shed/expired in one run but not the other: a timing difference, not a value one
			}
			compared++
			if !sameOutputs(a, b) {
				mismatches++
				fmt.Fprintf(os.Stderr, "compserve: VERIFY FAIL: request %s outputs differ between runs\n", id)
			}
		}
		if mismatches > 0 {
			fail(fmt.Errorf("verify: %d of %d replayed requests differ", mismatches, compared))
		}
		fmt.Printf("verify: %d requests replayed bit-identically (run2: %d completed, %d shed, %d expired)\n",
			compared, rep2.Completed, rep2.Shed, rep2.Expired)
	}

	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, rep); err != nil {
			fail(err)
		}
	}
}

// fleetOnlyFlags are meaningless without -fleet: naming any of them in a
// single-server invocation is a usage error, caught before anything runs.
var fleetOnlyFlags = []string{"hosts", "devices", "steal", "loss"}

// validateFlagDeps rejects contradictory flag combinations up front, in the
// same one-line style as the -exec validation: the error names the flag and
// what it requires.
func validateFlagDeps(fleetMode bool, set map[string]bool) error {
	if !fleetMode {
		for _, name := range fleetOnlyFlags {
			if set[name] {
				return fmt.Errorf("-%s requires -fleet", name)
			}
		}
	}
	return nil
}

// validateFleetShape rejects meaningless fleet shapes.
func validateFleetShape(hosts, devices int, loss bool) error {
	switch {
	case hosts < 1:
		return fmt.Errorf("-hosts %d must be positive", hosts)
	case devices < 1:
		return fmt.Errorf("-devices %d must be positive", devices)
	case loss && hosts*devices < 2:
		return fmt.Errorf("-loss needs at least 2 devices, got %d×%d", hosts, devices)
	}
	return nil
}

// fleetVictim is the device -loss fails: the second device of host 0.
const fleetVictim = "h0/d1"

// fleetTrace turns the client fleet shape into a deterministic event trace:
// clients×perClient submissions round-robin over the mix, a batch step
// every eight submissions, and optionally a mid-trace storm + loss +
// restore of one device.
func fleetTrace(mix []string, clients, perClient int, deadline time.Duration, loss bool) []fleet.Event {
	total := clients * perClient
	var ev []fleet.Event
	for i := 0; i < total; i++ {
		ev = append(ev, fleet.Submit(serve.Job{Workload: mix[i%len(mix)], Deadline: deadline}))
		if loss && i == total/3 {
			ev = append(ev,
				fleet.Storm(fleetVictim, fault.Uniform(11, 0.3)),
				fleet.Fail(fleetVictim))
		}
		if loss && i == 2*total/3 {
			ev = append(ev,
				fleet.Restore(fleetVictim),
				fleet.Storm(fleetVictim, fault.Config{}))
		}
		if i%8 == 7 {
			ev = append(ev, fleet.Step())
		}
	}
	return ev
}

// runFleetMode replays the client trace over a sharded fleet and prints the
// fleet rollup. With verify the trace replays twice and the run fails
// unless both replays are bit-identical: outputs, rejection set,
// placements, and the full report.
func runFleetMode(mix []string, exec string, hosts, devices, streams, queue, batch, steal, clients, perClient int,
	deadline time.Duration, loss, verify bool, jsonOut string) error {
	devs := fleet.DefaultDevices(hosts, devices, queue)
	for i := range devs {
		devs[i].Streams = streams
		devs[i].MaxBatch = batch
	}
	cfg := fleet.Config{Devices: devs, StealThreshold: steal, Exec: exec}
	events := fleetTrace(mix, clients, perClient, deadline, loss)

	var res *fleet.ReplayResult
	var err error
	if verify {
		res, err = fleet.Verify(cfg, events)
	} else {
		res, err = fleet.Replay(cfg, events)
	}
	if err != nil {
		return err
	}
	fmt.Print(res.Report.Format())
	if verify {
		fmt.Printf("verify: %d submissions replayed bit-identically (%d rejections, report %d bytes)\n",
			len(res.Outcomes), len(res.Rejections()), len(res.ReportJSON))
	}
	if jsonOut != "" {
		return writeJSON(jsonOut, res.Report)
	}
	return nil
}

// runFleet submits the full client trace against a fresh server built from
// cfg and returns the metrics report plus the per-request outputs, keyed
// "client/job".
func runFleet(mix []string, cfg serve.Config, clients, perClient int, deadline time.Duration) (*metrics.ServerReport, map[string]map[string][]float64, error) {
	s, err := serve.New(cfg)
	if err != nil {
		return nil, nil, err
	}
	var (
		mu   sync.Mutex
		outs = map[string]map[string][]float64{}
		errs []error
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				job := serve.Job{Workload: mix[(c+j)%len(mix)], Deadline: deadline}
				resp, err := s.Do(job)
				switch {
				case err == nil:
					mu.Lock()
					outs[fmt.Sprintf("%d/%d", c, j)] = resp.Outputs
					mu.Unlock()
				case err == serve.ErrOverloaded, err == serve.ErrDeadlineExceeded:
					// Typed rejections are expected behavior under pressure.
				default:
					mu.Lock()
					errs = append(errs, fmt.Errorf("client %d: %w", c, err))
					mu.Unlock()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	s.Close()
	if len(errs) > 0 {
		return nil, nil, errs[0]
	}
	rep := s.Report()
	return &rep, outs, nil
}

// sameOutputs compares two output-array maps bit-for-bit.
func sameOutputs(a, b map[string][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for name, av := range a {
		bv, ok := b[name]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if av[i] != bv[i] {
				return false
			}
		}
	}
	return true
}

// jsonReport is any metrics document that can serialize itself; both the
// single-server and the fleet reports satisfy it.
type jsonReport interface {
	WriteJSON(w io.Writer) error
}

func writeJSON(path string, rep jsonReport) error {
	if path == "-" {
		return rep.WriteJSON(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// usage prints the flag summary with runnable examples, mirroring the
// package comment.
func usage() {
	fmt.Fprintln(os.Stderr, `usage: compserve [flags]
examples:
  compserve                          # 64 clients x 2 requests over nn+dedup+srad
  compserve -clients 16 -requests 4  # different fleet shape
  compserve -queue 8 -verify         # undersized queue, bit-identical replay check
  compserve -fleet -hosts 2 -loss    # sharded 2x2 fleet with a mid-trace device loss
flags:`)
	flag.PrintDefaults()
}

// parseMix splits and validates the workload list: names must be known,
// serveable registry benchmarks.
func parseMix(spec string) ([]string, error) {
	mix := strings.Split(spec, ",")
	for i := range mix {
		mix[i] = strings.TrimSpace(mix[i])
		if mix[i] == "" {
			return nil, fmt.Errorf("empty workload name in -workloads %q", spec)
		}
		b, err := workloads.Get(mix[i])
		if err != nil {
			return nil, err
		}
		if b.SharedMem {
			return nil, fmt.Errorf("%s is a shared-memory benchmark and cannot be served", mix[i])
		}
	}
	return mix, nil
}

// validateShape rejects meaningless fleet shapes before any server spins
// up.
func validateShape(clients, requests, streams, queue, batch int, deadline time.Duration) error {
	switch {
	case clients < 1:
		return fmt.Errorf("-clients %d must be positive", clients)
	case requests < 1:
		return fmt.Errorf("-requests %d must be positive", requests)
	case streams < 1:
		return fmt.Errorf("-streams %d must be positive", streams)
	case queue < 0:
		return fmt.Errorf("-queue %d must not be negative", queue)
	case batch < 0:
		return fmt.Errorf("-batch %d must not be negative", batch)
	case queue > 0 && batch > queue:
		return fmt.Errorf("-batch %d exceeds -queue %d", batch, queue)
	case deadline < 0:
		return fmt.Errorf("-deadline %v must not be negative", deadline)
	}
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "compserve:", err)
	os.Exit(1)
}
