package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"comp/internal/interp"
	"comp/internal/tune"
	"comp/internal/vm"
)

// synthSource builds a small offload program whose outputs depend on the
// scale constant, so distinct keys provably serve distinct plans.
func synthSource(scale int) string {
	return fmt.Sprintf(`
float a[16384];
float b[16384];
int n;
int main(void) {
    int i;
    n = 16384;
    for (i = 0; i < n; i++) {
        a[i] = i * 0.5 + 1.0;
    }
    #pragma offload target(mic:0) in(a : length(n)) out(b : length(n))
    #pragma omp parallel for
    for (i = 0; i < n; i++) {
        b[i] = sqrt(a[i] * %d.0) + exp(a[i] * 0.0001);
    }
    return 0;
}
`, scale)
}

// seededSetup injects a deterministic input for array "a", overriding the
// source's static initialization — the per-request-inputs path.
func seededSetup(seed int64) func(*interp.Program) error {
	return func(p *interp.Program) error {
		r := rand.New(rand.NewSource(seed))
		data := make([]float64, 16384)
		for i := range data {
			data[i] = 1.0 + r.Float64()*100
		}
		return p.SetArray("a", data)
	}
}

// jobFor maps a client index onto the test's job mix: four synthetic
// sources (one tuned, one with per-request seeded inputs) plus the nn
// workload, so the plan cache holds five keys.
func jobFor(client int) Job {
	switch client % 8 {
	case 0:
		return Job{Workload: "nn"}
	case 1, 2:
		return Job{Key: "synth-3", Source: synthSource(3), Outputs: []string{"b"}}
	case 3, 4:
		return Job{Key: "synth-7-opt", Source: synthSource(7), Outputs: []string{"b"}, Optimize: true}
	case 5:
		return Job{Key: "synth-11-seeded", Source: synthSource(11), Outputs: []string{"b"},
			Setup: seededSetup(int64(1000 + client))}
	default:
		return Job{Key: "synth-5", Source: synthSource(5), Outputs: []string{"b"}}
	}
}

// runTrace serves one fixed 64-client trace on a fresh server and returns
// each client's outputs.
func runTrace(t *testing.T, clients int) ([]map[string][]float64, *Server) {
	t.Helper()
	s, err := New(Config{Streams: 4, QueueDepth: clients, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	results := make([]map[string][]float64, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			resp, err := s.Do(jobFor(c))
			results[c], errs[c] = resp.Outputs, err
		}(c)
	}
	wg.Wait()
	for c, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", c, err)
		}
	}
	return results, s
}

// TestServe64ClientsBitIdentical is the headline acceptance test: 64
// concurrent clients, two independent server runs over the same trace,
// bit-identical per-client results — batch boundaries and stream
// assignment may differ between runs, outputs may not. -short keeps the
// same double-run structure at a quarter of the fleet.
func TestServe64ClientsBitIdentical(t *testing.T) {
	clients := 64
	if testing.Short() {
		clients = 16
	}
	first, s1 := runTrace(t, clients)
	s1.Close()
	second, s2 := runTrace(t, clients)
	s2.Close()
	for c := 0; c < clients; c++ {
		a, b := first[c], second[c]
		if len(a) == 0 || len(a) != len(b) {
			t.Fatalf("client %d: output sets differ (%d vs %d arrays)", c, len(a), len(b))
		}
		for name, x := range a {
			y, ok := b[name]
			if !ok || len(x) != len(y) {
				t.Fatalf("client %d: output %s missing or resized", c, name)
			}
			for i := range x {
				if x[i] != y[i] {
					t.Fatalf("client %d: %s[%d] = %v vs %v across runs", c, name, i, x[i], y[i])
				}
			}
		}
	}
	rep := s1.Report()
	if rep.Completed != int64(clients) || rep.Shed != 0 || rep.Expired != 0 || rep.Failed != 0 {
		t.Fatalf("accounting: %+v", rep)
	}
	if rep.Submitted != rep.Completed+rep.Shed+rep.Expired+rep.Failed {
		t.Fatalf("requests dropped silently: %+v", rep)
	}
}

// TestServeOverloadSheds drives 2× the queue capacity into a server whose
// dispatcher is pinned: exactly QueueDepth requests are admitted, the rest
// shed with ErrOverloaded immediately, and after release every admitted
// request completes — no deadlock, nothing dropped silently.
func TestServeOverloadSheds(t *testing.T) {
	const depth = 8
	hold := make(chan struct{})
	s, err := New(Config{Streams: 2, QueueDepth: depth, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	s.testHoldBatch = hold
	defer s.Close()

	job := Job{Key: "synth-3", Source: synthSource(3), Outputs: []string{"b"}}
	var wg sync.WaitGroup
	firstDone := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := s.Do(job)
		firstDone <- err
	}()
	// Wait until the dispatcher has dequeued the first request and is
	// pinned at the hold point, so the queue is provably empty.
	waitFor(t, func() bool {
		rep := s.Report()
		return rep.Admitted == 1 && rep.QueueDepth == 0
	})

	total := 2 * depth
	errC := make(chan error, total)
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := s.Do(job)
			errC <- err
		}()
	}
	// All shed decisions are immediate; admitted requests block. Wait for
	// the queue to fill and the sheds to land.
	waitFor(t, func() bool { return s.Report().Shed == int64(total-depth) })
	if rep := s.Report(); rep.QueueDepth != depth {
		t.Fatalf("queue depth %d, want %d", rep.QueueDepth, depth)
	}

	close(hold)
	wg.Wait()
	if err := <-firstDone; err != nil {
		t.Fatalf("pinned request failed: %v", err)
	}
	var shed, completed int
	for i := 0; i < total; i++ {
		err := <-errC
		switch {
		case err == nil:
			completed++
		case errors.Is(err, ErrOverloaded):
			shed++
		default:
			t.Fatalf("unexpected error: %v", err)
		}
	}
	if shed != depth || completed != depth {
		t.Fatalf("shed %d completed %d, want %d and %d", shed, completed, depth, depth)
	}
	rep := s.Report()
	if rep.Submitted != rep.Completed+rep.Shed {
		t.Fatalf("requests dropped silently: %+v", rep)
	}
	if rep.MaxQueueDepth != depth {
		t.Fatalf("high-water mark %d, want %d", rep.MaxQueueDepth, depth)
	}
}

// TestServeDeadlineExpiresInQueue pins the dispatcher so a deadlined
// request provably expires while queued and is answered with the typed
// error, not dropped.
func TestServeDeadlineExpiresInQueue(t *testing.T) {
	hold := make(chan struct{})
	s, err := New(Config{Streams: 2, QueueDepth: 4, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.testHoldBatch = hold
	defer s.Close()

	var wg sync.WaitGroup
	wg.Add(1)
	var pinnedErr error
	go func() {
		defer wg.Done()
		_, pinnedErr = s.Do(Job{Key: "synth-3", Source: synthSource(3), Outputs: []string{"b"}})
	}()
	waitFor(t, func() bool {
		rep := s.Report()
		return rep.Admitted == 1 && rep.QueueDepth == 0
	})

	wg.Add(1)
	var deadlineErr error
	go func() {
		defer wg.Done()
		_, deadlineErr = s.Do(Job{Key: "synth-3", Source: synthSource(3), Outputs: []string{"b"},
			Deadline: 10 * time.Millisecond})
	}()
	waitFor(t, func() bool { return s.Report().QueueDepth == 1 })
	time.Sleep(30 * time.Millisecond)
	close(hold)
	wg.Wait()
	if pinnedErr != nil {
		t.Fatalf("pinned request failed: %v", pinnedErr)
	}
	if !errors.Is(deadlineErr, ErrDeadlineExceeded) {
		t.Fatalf("deadlined request got %v, want ErrDeadlineExceeded", deadlineErr)
	}
	if rep := s.Report(); rep.Expired != 1 {
		t.Fatalf("expired counter %d, want 1", rep.Expired)
	}
}

// TestServePlanCacheHitRatio serves a repeated-workload trace and checks
// the acceptance bar: hit ratio ≥ 90% and zero re-tuning probes after each
// key's first use.
func TestServePlanCacheHitRatio(t *testing.T) {
	s, err := New(Config{Streams: 2, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	trace := []Job{
		{Workload: "nn"},
		{Key: "synth-3", Source: synthSource(3), Outputs: []string{"b"}},
		{Key: "synth-7-opt", Source: synthSource(7), Outputs: []string{"b"}, Optimize: true},
	}
	// Warm each key once.
	for _, job := range trace {
		resp, err := s.Do(job)
		if err != nil {
			t.Fatal(err)
		}
		if resp.PlanCached {
			t.Fatalf("first use of %s reported a cache hit", resp.PlanKey)
		}
	}
	_, _, warmProbes := s.Planner().Stats()
	if warmProbes == 0 {
		t.Fatal("warmup spent no tuning probes; the trace does not exercise tuning")
	}
	// 19 rounds of 3 hits against 3 warm misses → 95% ratio; -short trims
	// to 10 rounds (30/33 ≈ 91%), still above the 90% bar.
	rounds := 19
	if testing.Short() {
		rounds = 10
	}
	for r := 0; r < rounds; r++ {
		for _, job := range trace {
			resp, err := s.Do(job)
			if err != nil {
				t.Fatal(err)
			}
			if !resp.PlanCached {
				t.Fatalf("round %d: %s missed the plan cache", r, resp.PlanKey)
			}
		}
	}
	hits, misses, probes := s.Planner().Stats()
	if probes != warmProbes {
		t.Fatalf("re-tuning after warmup: %d probes grew to %d", warmProbes, probes)
	}
	ratio := float64(hits) / float64(hits+misses)
	if ratio < 0.9 {
		t.Fatalf("plan-cache hit ratio %.2f < 0.90 (%d hits, %d misses)", ratio, hits, misses)
	}
	if rep := s.Report(); rep.PlanHitRatio != ratio {
		t.Fatalf("report hit ratio %v != planner ratio %v", rep.PlanHitRatio, ratio)
	}
}

// TestServeCloseServesQueued checks Close semantics: already-admitted
// requests are served, later submissions get ErrClosed.
func TestServeCloseServesQueued(t *testing.T) {
	hold := make(chan struct{})
	s, err := New(Config{Streams: 2, QueueDepth: 4, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.testHoldBatch = hold

	job := Job{Key: "synth-5", Source: synthSource(5), Outputs: []string{"b"}}
	var wg sync.WaitGroup
	errs := make([]error, 3)
	wg.Add(1)
	go func() { defer wg.Done(); _, errs[0] = s.Do(job) }()
	waitFor(t, func() bool {
		rep := s.Report()
		return rep.Admitted == 1 && rep.QueueDepth == 0
	})
	for i := 1; i < 3; i++ {
		wg.Add(1)
		go func(i int) { defer wg.Done(); _, errs[i] = s.Do(job) }(i)
	}
	waitFor(t, func() bool { return s.Report().QueueDepth == 2 })

	closed := make(chan struct{})
	go func() { s.Close(); close(closed) }()
	close(hold)
	<-closed
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("queued request %d not served across Close: %v", i, err)
		}
	}
	if _, err := s.Do(job); !errors.Is(err, ErrClosed) {
		t.Fatalf("Do after Close = %v, want ErrClosed", err)
	}
	if rep := s.Report(); rep.Completed != 3 {
		t.Fatalf("completed %d, want 3", rep.Completed)
	}
}

// TestServeBadJobsFailTyped checks that unroutable jobs are answered with
// their error (counted as failed), and shared-memory benchmarks are
// refused.
func TestServeBadJobsFailTyped(t *testing.T) {
	s, err := New(Config{Streams: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Do(Job{Workload: "no-such-benchmark"}); err == nil {
		t.Fatal("unknown workload served without error")
	}
	if _, err := s.Do(Job{Workload: "ferret"}); err == nil {
		t.Fatal("shared-memory benchmark served without error")
	}
	if _, err := s.Do(Job{}); !errors.Is(err, ErrInvalidJob) {
		t.Fatalf("empty job = %v, want ErrInvalidJob", err)
	}
	rep := s.Report()
	if rep.Failed != 2 {
		t.Fatalf("failed counter %d, want 2", rep.Failed)
	}
	if rep.Invalid != 1 {
		t.Fatalf("invalid counter %d, want 1", rep.Invalid)
	}
}

// TestServeInvalidJobsRejectedBeforeAdmission is the ErrInvalidJob
// regression suite: every malformed-job shape is refused synchronously
// with the typed error, none is admitted or reaches the planner, and the
// queue stays untouched.
func TestServeInvalidJobsRejectedBeforeAdmission(t *testing.T) {
	s, err := New(Config{Streams: 2, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bad := []struct {
		name string
		job  Job
	}{
		{"empty", Job{}},
		{"key-without-source", Job{Key: "k"}},
		{"source-without-key", Job{Source: synthSource(3)}},
		{"workload-and-source", Job{Workload: "nn", Key: "k", Source: synthSource(3)}},
		{"negative-deadline", Job{Workload: "nn", Deadline: -time.Second}},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := s.Do(tc.job); !errors.Is(err, ErrInvalidJob) {
				t.Fatalf("Do(%s) = %v, want ErrInvalidJob", tc.name, err)
			}
		})
	}
	rep := s.Report()
	if rep.Invalid != int64(len(bad)) {
		t.Fatalf("invalid counter %d, want %d", rep.Invalid, len(bad))
	}
	if rep.Admitted != 0 || rep.Failed != 0 || rep.PlanMisses != 0 {
		t.Fatalf("invalid jobs leaked past admission: %+v", rep)
	}
	// A well-formed job on the same server still serves.
	if _, err := s.Do(Job{Workload: "nn"}); err != nil {
		t.Fatalf("valid job after invalid ones: %v", err)
	}
}

// waitFor polls a condition with a generous timeout; soak-safe under
// -race scheduling jitter.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached within 10s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServeConfigValidation pins the constructor's error paths: negative
// knobs and an invalid runtime platform are rejected before any goroutine
// starts, and Close is idempotent.
func TestServeConfigValidation(t *testing.T) {
	if _, err := New(Config{QueueDepth: -1}); err == nil {
		t.Error("negative QueueDepth accepted")
	}
	if _, err := New(Config{MaxBatch: -2}); err == nil {
		t.Error("negative MaxBatch accepted")
	}
	// More streams than the device has cores: scheduler validation fails.
	if _, err := New(Config{Streams: 100000}); err == nil {
		t.Error("unpartitionable stream count accepted")
	}
	s, err := New(Config{Streams: 2, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // second Close must return, not hang or panic
}

// TestServeExecPicksEngine: request programs run the VM unless
// Config.Exec names another engine, and vm.ExecInterp keeps the
// tree-walker selectable for differential runs. Plan-build probes run the
// VM either way: the setup hook sees every probe first, then the request.
func TestServeExecPicksEngine(t *testing.T) {
	for _, tc := range []struct {
		exec      string
		requestVM bool
	}{{"", true}, {vm.ExecVM, true}, {vm.ExecInterp, false}} {
		s, err := New(Config{Streams: 1, QueueDepth: 1, Exec: tc.exec})
		if err != nil {
			t.Fatal(err)
		}
		var engines []interp.Engine
		job := Job{Key: "synth-7-opt", Source: synthSource(7), Outputs: []string{"b"}, Optimize: true,
			Setup: func(p *interp.Program) error { engines = append(engines, p.Engine()); return nil }}
		_, err = s.Do(job)
		s.Close()
		if err != nil {
			t.Fatalf("Exec %q: %v", tc.exec, err)
		}
		if len(engines) < 2 {
			t.Fatalf("Exec %q: setup ran %d times, want probes plus the request", tc.exec, len(engines))
		}
		last := len(engines) - 1
		for i, e := range engines[:last] {
			if _, ok := e.(*vm.Engine); !ok {
				t.Errorf("Exec %q: probe %d ran on %T, want *vm.Engine", tc.exec, i, e)
			}
		}
		if _, ok := engines[last].(*vm.Engine); ok != tc.requestVM {
			t.Errorf("Exec %q: request ran on %T, want VM %v", tc.exec, engines[last], tc.requestVM)
		}
	}
}

// TestServeBadSourceFailsTyped covers the inline-source validation path:
// a job whose source does not compile is answered with the compile error.
func TestServeBadSourceFailsTyped(t *testing.T) {
	s, err := New(Config{Streams: 2, QueueDepth: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Do(Job{Key: "broken", Source: "int main(void) { return }"}); err == nil {
		t.Fatal("uncompilable source served without error")
	}
	// The error is cached: the retry fails identically without rebuilding.
	_, misses1, _ := s.Planner().Stats()
	if _, err := s.Do(Job{Key: "broken", Source: "int main(void) { return }"}); err == nil {
		t.Fatal("uncompilable source served on retry")
	}
	hits, misses2, _ := s.Planner().Stats()
	if misses2 != misses1 || hits == 0 {
		t.Fatalf("failed plan rebuilt instead of served from cache: %d hits, misses %d -> %d", hits, misses1, misses2)
	}
}

// TestServePlanRemarksSurvivesCacheHits: the remark trail is recorded once,
// when the plan is built; every later cache hit surfaces it again in the
// server report with zero recompiles. The nn workload is chosen because its
// trail provably fired (reorder + stream under the default pipeline).
func TestServePlanRemarksSurvivesCacheHits(t *testing.T) {
	s, err := New(Config{Streams: 2, QueueDepth: 8, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	const requests = 4
	for i := 0; i < requests; i++ {
		if _, err := s.Do(Job{Workload: "nn"}); err != nil {
			t.Fatal(err)
		}
	}
	_, misses, _ := s.Planner().Stats()
	if misses != 1 {
		t.Fatalf("plan rebuilt: %d misses for one key", misses)
	}
	rep := s.Report()
	if len(rep.Plans) != 1 {
		t.Fatalf("want 1 plan in report, got %d", len(rep.Plans))
	}
	p := rep.Plans[0]
	if p.Hits != requests-1 {
		t.Fatalf("plan hits = %d, want %d", p.Hits, requests-1)
	}
	if len(p.Remarks) == 0 {
		t.Fatal("cache-hit plan lost its remark trail")
	}
	if !p.Remarks.Has("stream") || !p.Remarks.Has("reorder") {
		t.Fatalf("nn plan trail missing expected applied remarks:\n%s", p.Remarks.Render())
	}
	if rep.Passes["streaming"].Applied == 0 || rep.Passes["regularize"].Applied == 0 {
		t.Fatalf("pass counters not derived from plan remarks: %+v", rep.Passes)
	}
	// The rendered report carries the trail too — operators read Format().
	text := rep.Format()
	for _, frag := range []string{"plan nn|", "applied", "passes:"} {
		if !strings.Contains(text, frag) {
			t.Fatalf("Format() missing %q:\n%s", frag, text)
		}
	}
}

// TestServeSteppedVirtualClockDeterministic pins the replay substrate the
// scenario engine builds on: a stepped server with an injected virtual
// clock answers a fixed submission sequence with a bit-identical
// ServerReport — including the latency histograms, which become virtual
// durations — across two independent runs, and deadlines are judged
// against the virtual clock, not the wall.
func TestServeSteppedVirtualClockDeterministic(t *testing.T) {
	run := func() ([]byte, []map[string][]float64) {
		now := time.Unix(0, 0)
		s, err := New(Config{
			Streams: 2, QueueDepth: 8, MaxBatch: 4,
			Stepped: true,
			Clock:   func() time.Time { return now },
		})
		if err != nil {
			t.Fatal(err)
		}
		var tickets []*Ticket
		for i := 0; i < 6; i++ {
			now = now.Add(time.Millisecond)
			job := Job{Key: "synth-3", Source: synthSource(3), Outputs: []string{"b"}}
			if i == 4 {
				job.Deadline = time.Millisecond // expires: dispatch happens 10ms later
			}
			tk, err := s.Enqueue(job)
			if err != nil {
				t.Fatalf("enqueue %d: %v", i, err)
			}
			tickets = append(tickets, tk)
		}
		now = now.Add(10 * time.Millisecond)
		served := 0
		for served < len(tickets) {
			n := s.StepBatch()
			if n == 0 {
				t.Fatalf("queue drained after %d of %d answers", served, len(tickets))
			}
			served += n
		}
		var outs []map[string][]float64
		for i, tk := range tickets {
			resp, err := tk.Wait()
			if i == 4 {
				if !errors.Is(err, ErrDeadlineExceeded) {
					t.Fatalf("request %d: err = %v, want virtual-clock deadline expiry", i, err)
				}
				outs = append(outs, nil)
				continue
			}
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			if resp.Latency <= 0 || resp.Latency > 20*time.Millisecond {
				t.Fatalf("request %d: latency %v is not on the virtual clock", i, resp.Latency)
			}
			outs = append(outs, resp.Outputs)
		}
		s.Close()
		rep := s.Report()
		raw, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return raw, outs
	}
	rep1, outs1 := run()
	rep2, outs2 := run()
	if string(rep1) != string(rep2) {
		t.Fatalf("stepped replays produced different reports:\n%s\n%s", rep1, rep2)
	}
	for i := range outs1 {
		if !outputsEqual(outs1[i], outs2[i]) {
			t.Fatalf("request %d outputs differ between replays", i)
		}
	}
}

func outputsEqual(a, b map[string][]float64) bool {
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

// TestPlanCacheCachedErrorFreezesProbes replays the same failing job
// against a warm cache: the first build caches the error, every later
// submission must be answered from the cached entry without re-probing or
// re-building — the probe counter and miss counter stay frozen.
func TestPlanCacheCachedErrorFreezesProbes(t *testing.T) {
	s, err := New(Config{Streams: 2, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Warm the cache with a tuned plan so the probe counter is non-zero
	// and a regression that re-probes has something to move.
	if _, err := s.Do(Job{Key: "tuned", Source: synthSource(7), Outputs: []string{"b"}, Optimize: true}); err != nil {
		t.Fatal(err)
	}
	_, _, warmProbes := s.Planner().Stats()
	if warmProbes == 0 {
		t.Fatal("optimized job spent no probes; tuning not exercised")
	}

	// A job whose plan build fails: inline source that does not compile.
	failing := Job{Key: "broken", Source: "int main(void) { return 0", Outputs: []string{"b"}}
	var firstErr error
	if _, firstErr = s.Do(failing); firstErr == nil {
		t.Fatal("broken source served without error")
	}
	_, missesAfterFirst, _ := s.Planner().Stats()

	for i := 0; i < 5; i++ {
		_, err := s.Do(failing)
		if err == nil {
			t.Fatalf("replay %d: broken source served without error", i)
		}
		if err.Error() != firstErr.Error() {
			t.Fatalf("replay %d: error %q differs from cached %q", i, err, firstErr)
		}
	}
	hits, misses, probes := s.Planner().Stats()
	if probes != warmProbes {
		t.Fatalf("probe counter moved on cached-error replays: %d -> %d", warmProbes, probes)
	}
	if misses != missesAfterFirst {
		t.Fatalf("cached error rebuilt: misses %d -> %d", missesAfterFirst, misses)
	}
	if hits < 5 {
		t.Fatalf("cached-error replays counted %d hits, want >= 5", hits)
	}
}

// TestServeTunedPlans exercises the unified cost-model pipeline search end
// to end through the serving layer: a tuned server builds its plan within
// the probe budget, records the tuning decision (predicted vs measured
// cost) in the plan report under a "|tuned" cache key, returns the same
// values an untuned server does, and a second server sharing the learned
// model rebuilds the plan without spending a single probe.
func TestServeTunedPlans(t *testing.T) {
	model := tune.NewModel()
	s, err := New(Config{Streams: 2, QueueDepth: 8, MaxBatch: 4, Tune: true, TuneModel: model})
	if err != nil {
		t.Fatal(err)
	}
	tunedResp, err := s.Do(Job{Workload: "nn"})
	if err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	s.Close()
	if len(rep.Plans) != 1 {
		t.Fatalf("want 1 plan, got %d", len(rep.Plans))
	}
	p := rep.Plans[0]
	if !strings.HasSuffix(p.Key, "|tuned") {
		t.Fatalf("tuned plan key %q missing |tuned marker", p.Key)
	}
	if p.Tuned == nil {
		t.Fatal("tuned plan carries no decision")
	}
	if p.Tuned.PredictedNs <= 0 || p.Tuned.MeasuredNs <= 0 {
		t.Fatalf("decision missing predicted/measured cost: %+v", p.Tuned)
	}
	if p.TuneProbes > tune.DefaultMaxProbes {
		t.Fatalf("probe budget overrun: %d > %d", p.TuneProbes, tune.DefaultMaxProbes)
	}
	if !p.Remarks.Has("select") {
		t.Fatalf("tuned plan trail missing the tune stage's select remark:\n%s", p.Remarks.Render())
	}
	if model.Len() == 0 {
		t.Fatal("tuning decision was not observed into the shared model")
	}

	// Semantics: the tuned pipeline must serve the same values as the
	// legacy path — transformations reshape timing, never outputs.
	plain, err := New(Config{Streams: 2, QueueDepth: 8, MaxBatch: 4})
	if err != nil {
		t.Fatal(err)
	}
	plainResp, err := plain.Do(Job{Workload: "nn"})
	plain.Close()
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range plainResp.Outputs {
		got, ok := tunedResp.Outputs[name]
		if !ok || len(got) != len(want) {
			t.Fatalf("tuned output %s missing or resized", name)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("tuned output %s[%d] = %v, want %v", name, i, got[i], want[i])
			}
		}
	}

	// Warm start: a fresh server sharing the model recognizes the exact
	// (workload, platform) pair and replays the decision with zero probes.
	warm, err := New(Config{Streams: 2, QueueDepth: 8, MaxBatch: 4, Tune: true, TuneModel: model})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Do(Job{Workload: "nn"}); err != nil {
		t.Fatal(err)
	}
	wrep := warm.Report()
	warm.Close()
	if len(wrep.Plans) != 1 {
		t.Fatalf("warm server: want 1 plan, got %d", len(wrep.Plans))
	}
	wp := wrep.Plans[0]
	if wp.TuneProbes != 0 {
		t.Fatalf("warm rebuild spent %d probes, want 0", wp.TuneProbes)
	}
	if wp.Tuned == nil || wp.Tuned.Source != "model" {
		t.Fatalf("warm rebuild not served from the model: %+v", wp.Tuned)
	}
}
