package fleet

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"comp/internal/interp"
	"comp/internal/runtime"
	"comp/internal/serve"
	"comp/internal/sim/fault"
)

// The fleet soak mirrors internal/serve's soak at fleet scale: 32
// concurrent submitters hammer a 2×2 heterogeneous fleet whose every
// device injects chaos faults, while one device is lost and restored
// mid-storm. The serving invariants must hold fleet-wide: every request
// answered exactly once with a result or a typed error; successful results
// bit-identical to a fault-free single-server reference (faults and
// placement perturb timing, never values); and the rollup accounting adds
// up — nothing dropped, nothing double-assigned, nothing deadlocked.
func TestSoakFleet32SubmittersChaos(t *testing.T) {
	const (
		submitters = 32
		perClient  = 4
	)
	f, err := New(Config{Devices: DefaultDevices(2, 2, 16), StealThreshold: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for i, id := range f.Devices() {
		if err := f.SetDeviceFaults(id, fault.Uniform(int64(7+i), 0.25)); err != nil {
			t.Fatal(err)
		}
	}

	// Fault-free references, one per synthetic key, computed on a plain
	// single-device runtime: the interpreter computes values and every
	// platform only times them, so any device of any class must reproduce
	// these bit-for-bit.
	scales := []int{3, 5, 7, 11}
	refs := make(map[int][]float64, len(scales))
	for _, scale := range scales {
		p, err := interp.Compile(synthSource(scale))
		if err != nil {
			t.Fatal(err)
		}
		res, err := runtime.Run(p, runtime.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		data, err := res.Program.ArrayData("out")
		if err != nil {
			t.Fatal(err)
		}
		refs[scale] = append([]float64(nil), data...)
	}

	// One submitter doubles as the chaos operator: it loses and restores a
	// device mid-trace while the others keep submitting.
	victim := f.Devices()[1]
	var chaosOnce sync.Once
	chaos := func() {
		chaosOnce.Do(func() {
			if err := f.FailDevice(victim); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(10 * time.Millisecond)
			if err := f.RestoreDevice(victim); err != nil {
				t.Error(err)
			}
		})
	}

	type tally struct{ completed, shed, expired int }
	tallies := make([]tally, submitters)
	var wg sync.WaitGroup
	for c := 0; c < submitters; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for j := 0; j < perClient; j++ {
				if c == 0 && j == 1 {
					chaos()
				}
				scale := scales[(c+j)%len(scales)]
				job := serve.Job{
					Key:     fmt.Sprintf("fleet-soak-%d", scale),
					Source:  synthSource(scale),
					Outputs: []string{"out"},
				}
				if (c+j)%5 == 0 {
					job.Deadline = 5 * time.Second // only pathological stalls expire it
				}
				resp, err := f.Do(job)
				switch {
				case err == nil:
					ref := refs[scale]
					got := resp.Outputs["out"]
					if len(got) != len(ref) {
						t.Errorf("client %d job %d: output resized", c, j)
						return
					}
					for i := range got {
						if got[i] != ref[i] {
							t.Errorf("client %d job %d on %s: out[%d] = %v, fault-free reference %v",
								c, j, resp.Device, i, got[i], ref[i])
							return
						}
					}
					tallies[c].completed++
				case errors.Is(err, serve.ErrOverloaded):
					tallies[c].shed++
				case errors.Is(err, serve.ErrDeadlineExceeded):
					tallies[c].expired++
				case errors.Is(err, ErrNoDevices):
					tallies[c].shed++ // total loss window: typed, not dropped
				default:
					t.Errorf("client %d job %d: unexpected error %v", c, j, err)
					return
				}
			}
		}(c)
	}
	wg.Wait()

	var completed, shed, expired int64
	for _, y := range tallies {
		completed += int64(y.completed)
		shed += int64(y.shed)
		expired += int64(y.expired)
	}
	if completed+shed+expired != submitters*perClient {
		t.Fatalf("accounting: %d completed + %d shed + %d expired != %d submitted",
			completed, shed, expired, submitters*perClient)
	}
	if completed == 0 {
		t.Fatal("soak completed nothing; fleet too small for the trace")
	}
	rep := f.Report()
	agg := rep.Aggregate
	if agg.Completed != completed || agg.Expired != expired || agg.Failed != 0 {
		t.Fatalf("fleet counters disagree with client tallies: completed %d/%d expired %d/%d failed %d",
			agg.Completed, completed, agg.Expired, expired, agg.Failed)
	}
	if agg.Shed+rep.NoDevice != shed {
		t.Fatalf("shed accounting: devices shed %d + router no-device %d != clients saw %d",
			agg.Shed, rep.NoDevice, shed)
	}
	if rep.Routed+rep.NoDevice != submitters*perClient {
		t.Fatalf("router handled %d + rejected %d of %d submissions", rep.Routed, rep.NoDevice, submitters*perClient)
	}
	if agg.Submitted != rep.Routed {
		t.Fatalf("per-device submissions %d != routed %d: a request was dropped or double-assigned",
			agg.Submitted, rep.Routed)
	}
	if rep.LossEvents != 1 || rep.RestoreEvents != 1 {
		t.Fatalf("chaos events miscounted: %+v", rep)
	}
	// The shared registry planned each (key, signature) pair at most once,
	// no matter how many submitters raced on first use.
	maxPlans := int64(len(scales) * 2) // two signatures in the fleet
	if agg.PlanMisses > maxPlans {
		t.Fatalf("plan misses %d > %d: registry not shared or singleflight broken", agg.PlanMisses, maxPlans)
	}
}

// fleet1000Trace models 1000+ concurrent clients: every client has a
// request in flight within the same drain horizon, interleaved with batch
// steps, a device-loss fault storm, and deadline-bearing submissions.
func fleet1000Trace(clients int, victim string) []Event {
	var ev []Event
	// The storm and the loss land on the 14th submission of a 16-wide
	// step window (as clients/3 does at 1000 clients), so the victim has
	// queued work to drain under the storm at every trace size.
	storm := clients/3/16*16 + 13
	restore := 2 * clients / 3
	for i := 0; i < clients; i++ {
		job := serve.Job{
			Key:     fmt.Sprintf("fleet-replay-%d", i%8),
			Source:  synthSource(i % 8),
			Outputs: []string{"out"},
		}
		switch {
		case i%17 == 0:
			// Tight virtual deadline: steps come every ~16 ticks, so a job
			// submitted early in the window expires before its batch runs.
			job.Deadline = 4 * ReplayTick
		case i%23 == 0:
			job = serve.Job{} // invalid: must be typed, never dropped
		}
		ev = append(ev, Submit(job))
		if i == storm {
			ev = append(ev, Storm(victim, fault.Uniform(13, 0.35)), Fail(victim))
		}
		if i == restore {
			ev = append(ev, Restore(victim), Storm(victim, fault.Config{}))
		}
		if i%16 == 15 {
			ev = append(ev, Step())
		}
	}
	return ev
}

// TestFleetReplay1000ClientsBitIdentical is the acceptance contract: a
// 1000-client trace — including a device-loss fault storm, deadlines, and
// invalid submissions — double-replays bit-identically: outputs, rejection
// set, placements, and the fleet-wide report rollup.
func TestFleetReplay1000ClientsBitIdentical(t *testing.T) {
	clients := 1000
	if testing.Short() {
		clients = 200
	}
	cfg := Config{Devices: DefaultDevices(2, 2, 48), StealThreshold: 8}
	victim := "h0/d1"
	events := fleet1000Trace(clients, victim)

	res, err := Verify(cfg, events) // replays twice, compares canonical bytes
	if err != nil {
		t.Fatal(err)
	}

	submissions := 0
	for _, e := range events {
		if e.Op == OpSubmit {
			submissions++
		}
	}
	if len(res.Outcomes) != submissions {
		t.Fatalf("outcomes %d != submissions %d: dropped or double-answered", len(res.Outcomes), submissions)
	}
	seen := map[int]bool{}
	var completed, invalid, overloaded, expired int
	for _, o := range res.Outcomes {
		if seen[o.Index] {
			t.Fatalf("outcome index %d answered twice", o.Index)
		}
		seen[o.Index] = true
		switch {
		case o.Err == "":
			completed++
			if len(o.Outputs) == 0 {
				t.Fatalf("outcome %d completed without outputs", o.Index)
			}
		case strings.Contains(o.Err, serve.ErrInvalidJob.Error()):
			invalid++
		case strings.Contains(o.Err, serve.ErrOverloaded.Error()):
			overloaded++
		case strings.Contains(o.Err, serve.ErrDeadlineExceeded.Error()):
			expired++
		default:
			t.Fatalf("outcome %d: untyped rejection %q", o.Index, o.Err)
		}
		if o.Placement.Device == victim && o.Err == "" && o.Placement.Rerouted {
			t.Fatalf("outcome %d: rerouted placement still landed on the lost device", o.Index)
		}
	}
	if completed == 0 || invalid == 0 {
		t.Fatalf("trace coverage too thin: %d completed, %d invalid", completed, invalid)
	}
	if expired == 0 {
		t.Fatal("no deadline expired; the deadline leg of the rejection set is untested")
	}
	t.Logf("replayed %d submissions twice bit-identically: %d completed, %d invalid, %d overloaded, %d expired, %d stolen, %d rerouted",
		submissions, completed, invalid, overloaded, expired, res.Report.Stolen, res.Report.Rerouted)

	// The loss window rebalanced traffic: some placement was rerouted off
	// the lost device, and the storm left fault-recovery evidence.
	if res.Report.Rerouted == 0 {
		t.Error("device loss never rerouted a placement")
	}
	if res.Report.Aggregate.FaultsInjected == 0 {
		t.Error("fault storm injected nothing")
	}
	if res.Report.Aggregate.Completed != int64(completed) {
		t.Fatalf("rollup completed %d != outcome completed %d", res.Report.Aggregate.Completed, completed)
	}
}
