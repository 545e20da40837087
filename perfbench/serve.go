package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"comp/internal/pass"
	"comp/internal/serve"
	"comp/internal/vm"
	"comp/internal/workloads"
)

// serveWorkload is a closed loop of clients against one serve.Server:
// each client keeps serveInFlight requests queued and sends the next only
// when its oldest is answered, so batches form. Requests draw from the
// registry mix; every serveInlineEvery-th request is an inline source
// under a fresh key with Optimize set, which forces a plan build (the
// write path) among plan-cache hits (the read path). It is the only
// workload that exercises admission, batching, the plan cache and
// runtime.Scheduler.
type serveWorkload struct {
	srv *serve.Server
	// want holds each program's CPU-baseline outputs, what every
	// response must return.
	want map[string]map[string][]float64
}

// serveMix is the registry mix clients draw from.
var serveMix = []string{"nn", "dedup", "srad", "blackscholes", "kmeans", "bfs"}

const (
	// serveInline is the program inline-source requests carry; it is in
	// serveMix, so its reference outputs are built with the mix's.
	serveInline      = "dedup"
	serveInlineEvery = 20
	serveInFlight    = 2
	// serveRequestsPerSecond sizes a run at about the rate a 2-core
	// 2.x GHz host serves this mix.
	serveRequestsPerSecond = 15
)

// setup builds the reference outputs and a fresh server, then warms its
// plan cache with one request per registry workload.
func (w *serveWorkload) setup(h *harness) error {
	p := newProbe(false)
	w.want = map[string]map[string][]float64{}
	for _, name := range serveMix {
		b, err := workloads.Get(name)
		if err != nil {
			return err
		}
		cpu, err := b.CPUSource()
		if err != nil {
			return err
		}
		c, err := p.build(cpu, "", pass.Config{})
		if err != nil {
			return err
		}
		res, err := p.execute(c, platform(b), b.Setup)
		if err != nil {
			return fmt.Errorf("%s reference: %w", name, err)
		}
		outs := map[string][]float64{}
		for _, arr := range b.Outputs {
			data, err := res.Program.ArrayData(arr)
			if err != nil {
				return err
			}
			outs[arr] = append([]float64(nil), data...)
		}
		w.want[name] = outs
	}
	srv, err := serve.New(serve.Config{Exec: vm.ExecVM})
	if err != nil {
		return err
	}
	w.srv = srv
	for _, name := range serveMix {
		resp, err := srv.Do(serve.Job{Workload: name})
		if err != nil {
			return fmt.Errorf("warming %s: %w", name, err)
		}
		if err := sameOutputs(w.want[name], resp.Outputs); err != nil {
			return fmt.Errorf("warming %s: %w", name, err)
		}
	}
	return nil
}

// serveRequest is one planned request and the program it runs.
type serveRequest struct {
	job     serve.Job
	program string
}

// requests draws the run's request sequence from the seed: the mix is
// dealt from shuffled decks, so every run serves the same composition in
// a different order.
func (w *serveWorkload) requests(h *harness, n int) ([]serveRequest, error) {
	inline, err := workloads.Get(serveInline)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(h.seed))
	var deck []string
	out := make([]serveRequest, n)
	for i := range out {
		if (i+1)%serveInlineEvery == 0 {
			out[i] = serveRequest{program: serveInline, job: serve.Job{
				Source: inline.Source, Key: fmt.Sprintf("inline-%d-%d", h.seed, i),
				Outputs: inline.Outputs, Setup: inline.Setup, Optimize: true,
			}}
			continue
		}
		if len(deck) == 0 {
			deck = append(deck, serveMix...)
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		out[i] = serveRequest{program: deck[0], job: serve.Job{Workload: deck[0]}}
		deck = deck[1:]
	}
	return out, nil
}

func (w *serveWorkload) run(h *harness) error {
	reqs, err := w.requests(h, h.rounds(serveRequestsPerSecond))
	if err != nil {
		return err
	}
	var mu sync.Mutex
	next := 0
	take := func() (serveRequest, bool) {
		mu.Lock()
		defer mu.Unlock()
		if next == len(reqs) {
			return serveRequest{}, false
		}
		next++
		return reqs[next-1], true
	}
	type inflight struct {
		id      int
		req     serveRequest
		start   time.Time
		ticket  *serve.Ticket
		enqueue error
	}
	var wg sync.WaitGroup
	for c := 0; c < h.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var queue []inflight
			for {
				for len(queue) < serveInFlight {
					req, ok := take()
					if !ok {
						break
					}
					f := inflight{id: h.begin(), req: req, start: time.Now()}
					f.ticket, f.enqueue = w.srv.Enqueue(req.job)
					queue = append(queue, f)
				}
				if len(queue) == 0 {
					return
				}
				f := queue[0]
				queue = queue[1:]
				err := f.enqueue
				var resp serve.Response
				if err == nil {
					resp, err = f.ticket.Wait()
				}
				end := time.Now()
				if err == nil {
					err = sameOutputs(w.want[f.req.program], resp.Outputs)
				}
				h.end(f.id, end.Sub(f.start), err)
				if h.p.traced() {
					h.p.tr.record("serve.request", f.id, f.start, end)
				}
			}
		}()
	}
	wg.Wait()
	w.srv.Close()
	rep := w.srv.Report()
	h.layer["serve.plan_hit_ratio"] = rep.PlanHitRatio
	h.layer["serve.plan_misses"] = float64(rep.PlanMisses)
	h.layer["serve.tune_probes"] = float64(rep.TuneProbes)
	h.layer["serve.batches"] = float64(rep.Batches)
	h.layer["serve.max_batch"] = float64(rep.MaxBatch)
	h.layer["serve.shed"] = float64(rep.Shed)
	return nil
}

// sameOutputs compares a response's output arrays with the reference.
func sameOutputs(want, got map[string][]float64) error {
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("response lacks output %s", name)
		}
		if len(g) != len(w) {
			return fmt.Errorf("output %s has %d values, want %d", name, len(g), len(w))
		}
		for i := range w {
			if g[i] != w[i] {
				return fmt.Errorf("output %s[%d] = %v, want %v", name, i, g[i], w[i])
			}
		}
	}
	return nil
}

func (w *serveWorkload) close() {
	if w.srv != nil {
		w.srv.Close()
	}
}
