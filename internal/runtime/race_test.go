package runtime

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"comp/internal/interp"
	"comp/internal/sim/engine"
)

// racySingleBuffer is a broken hand-written pipeline: it prefetches the
// next block into the SAME device buffer the current kernel reads. The
// interpreter's sequential execution still computes correct values, but
// on real hardware the DMA would overwrite data mid-kernel; the runtime's
// timing-domain race detector must flag it.
const racySingleBuffer = `
float src[65536];
float dst[65536];
float *buf;
float *outb;
int sig;
int n;

int main(void) {
    int i;
    int blk;
    n = 65536;
    int bs = n / 8;
    #pragma offload_transfer target(mic:0) nocopy(buf : length(bs) alloc_if(1) free_if(0)) nocopy(outb : length(bs) alloc_if(1) free_if(0))
    #pragma offload_transfer target(mic:0) in(src[0 : bs] : into(buf) alloc_if(0) free_if(0)) signal(&sig)
    for (blk = 0; blk < 8; blk++) {
        if (blk + 1 < 8) {
            // BUG: prefetch into the buffer the kernel is about to read.
            #pragma offload_transfer target(mic:0) in(src[(blk + 1) * bs : bs] : into(buf) alloc_if(0) free_if(0)) signal(&sig)
        }
        #pragma offload target(mic:0) out(outb[0 : bs] : into(dst[blk * bs : bs]) alloc_if(0) free_if(0))
        #pragma omp parallel for
        for (i = 0; i < bs; i++) {
            outb[i] = sqrt(buf[i] + 1.0) * 2.0 + exp(buf[i] * 0.0001);
        }
    }
    return 0;
}
`

func TestRaceDetectorFlagsSingleBufferPipeline(t *testing.T) {
	p, err := interp.Compile(racySingleBuffer)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.RaceWarnings) == 0 {
		t.Fatal("single-buffer pipeline produced no race warnings")
	}
	w := res.Stats.RaceWarnings[0]
	if !strings.Contains(w, `device buffer "buf"`) {
		t.Fatalf("warning does not name the racy buffer: %s", w)
	}
}

func TestRaceDetectorCleanOnCorrectPipeline(t *testing.T) {
	// The correctly double-buffered pipeline from the streaming tests.
	p, err := interp.Compile(streamedSource(1<<17, 8, false))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.RaceWarnings) != 0 {
		t.Fatalf("correct pipeline flagged: %v", res.Stats.RaceWarnings)
	}
}

func TestRaceDetectorCleanOnSynchronousOffload(t *testing.T) {
	p, err := interp.Compile(simpleOffload)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats.RaceWarnings) != 0 {
		t.Fatalf("synchronous offload flagged: %v", res.Stats.RaceWarnings)
	}
}

// racyBlocks64 is racySingleBuffer stretched to 64 blocks of the same size,
// so every prefetch still outlasts the kernel start it races with: enough
// races to overflow maxRaceWarnings. (Shrinking the blocks instead leaves
// the kernels too short to overlap more than one transfer.)
var racyBlocks64 = strings.NewReplacer(
	"65536", "524288",
	"blk < 8", "blk < 64",
	"blk + 1 < 8", "blk + 1 < 64",
	"n / 8", "n / 64",
).Replace(racySingleBuffer)

func TestRaceWarningsCapped(t *testing.T) {
	p, err := interp.Compile(racyBlocks64)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Reset(); err != nil {
		t.Fatal(err)
	}
	rt := New(DefaultConfig())
	if err := p.Run(rt); err != nil {
		t.Fatal(err)
	}
	warns := rt.Finish().RaceWarnings
	if len(warns) != maxRaceWarnings+1 {
		t.Fatalf("warnings = %d, want %d (truncated, with the '... and N more' sentinel)", len(warns), maxRaceWarnings+1)
	}
	// Truncation must say how much it dropped rather than dropping silently,
	// and the kept entries and the dropped count must be exactly what the
	// all-pairs scan reports.
	if want := naiveRaces(rt.bufWrites, rt.kernelUses); !reflect.DeepEqual(warns, want) {
		t.Fatalf("warnings differ from the all-pairs reference:\ngot  %q\nwant %q", warns, want)
	}
	if !strings.HasPrefix(warns[maxRaceWarnings], "... and ") {
		t.Fatalf("truncated list lacks the '... and N more' sentinel: %q", warns[maxRaceWarnings])
	}
}

// TestSchedulerRaceWarnings: per-request race warnings under the scheduler
// match the all-pairs reference over each request's own intervals, and a
// clean request sharing the batch reports none.
func TestSchedulerRaceWarnings(t *testing.T) {
	racy, err := interp.Compile(racyBlocks64)
	if err != nil {
		t.Fatal(err)
	}
	clean, err := interp.Compile(streamedSource(1<<17, 8, false))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(DefaultConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	s.Submit(Request{Label: "clean", Program: clean})
	s.Submit(Request{Label: "racy", Program: racy})
	res, rts, err := s.run()
	if err != nil {
		t.Fatal(err)
	}
	for rank, rq := range res.Stats.Requests {
		want := naiveRaces(rts[rank].bufWrites, rts[rank].kernelUses)
		if !reflect.DeepEqual(rq.RaceWarnings, want) {
			t.Errorf("request %s: warnings differ from the all-pairs reference:\ngot  %q\nwant %q", rq.Label, rq.RaceWarnings, want)
		}
		switch rq.Label {
		case "clean":
			if len(rq.RaceWarnings) != 0 {
				t.Errorf("clean request flagged: %v", rq.RaceWarnings)
			}
		case "racy":
			if len(rq.RaceWarnings) != maxRaceWarnings+1 {
				t.Errorf("racy request: %d warnings, want %d", len(rq.RaceWarnings), maxRaceWarnings+1)
			}
		}
	}
}

// naiveRaces is the all-pairs race scan: every fired write against every
// fired kernel use. detectRaces must report exactly what it reports.
func naiveRaces(writes, uses []interval) []string {
	var warns []string
	for _, w := range writes {
		if !w.done.Fired() {
			continue
		}
		ws, we := w.bounds()
		for _, k := range uses {
			if k.buf != w.buf || !k.done.Fired() {
				continue
			}
			if w.hiByte <= k.loByte || k.hiByte <= w.loByte {
				continue
			}
			ks, ke := k.bounds()
			if ws < ke && ks < we {
				warns = append(warns, fmt.Sprintf(
					"race on device buffer %q: transfer %s [%v,%v) overlaps kernel %s [%v,%v)",
					w.buf, w.label, ws, we, k.label, ks, ke))
			}
		}
	}
	return truncateWarnings(warns)
}

// ivSpec is one generated interval: a buffer, an end time and duration in
// whole nanoseconds on a small grid (so endpoints often touch exactly), a
// byte range, and whether its event ever fires.
type ivSpec struct {
	Buf          int
	End, Dur     int64
	LoByte, Span int64
	Fired        bool
}

// raceCase is a random set of DMA writes and kernel uses for the property
// test.
type raceCase struct {
	Writes, Uses []ivSpec
}

func (raceCase) Generate(r *rand.Rand, size int) reflect.Value {
	// A few cases per hundred are dense enough to overflow the warning cap.
	n := 1 + r.Intn(12)
	if r.Intn(8) == 0 {
		n = 30 + r.Intn(40)
	}
	gen := func() []ivSpec {
		out := make([]ivSpec, r.Intn(n+1))
		for i := range out {
			dur := int64(r.Intn(5)) // 0 makes zero-duration intervals
			out[i] = ivSpec{
				Buf:    r.Intn(3),
				End:    dur + int64(r.Intn(20)),
				Dur:    dur,
				LoByte: int64(r.Intn(8)),
				Span:   int64(r.Intn(5)),
				Fired:  r.Intn(8) != 0,
			}
		}
		return out
	}
	return reflect.ValueOf(raceCase{Writes: gen(), Uses: gen()})
}

// buildIntervals turns specs into intervals whose events fire (or never
// fire) on a drained simulation.
func buildIntervals(sim *engine.Sim, kind string, specs []ivSpec) []interval {
	out := make([]interval, len(specs))
	for i, sp := range specs {
		ev := sim.NewEvent(kind)
		if sp.Fired {
			sim.At(engine.Time(sp.End), ev.Fire)
		}
		out[i] = interval{
			buf:    fmt.Sprintf("b%d", sp.Buf),
			label:  fmt.Sprintf("%s%d", kind, i),
			done:   ev,
			dur:    engine.Duration(sp.Dur),
			loByte: sp.LoByte,
			hiByte: sp.LoByte + sp.Span,
		}
	}
	return out
}

// TestPropertyRaceSweepMatchesAllPairs: on random interval sets (several
// buffers, overlapping, disjoint and touching byte ranges and times,
// zero-duration and unfired intervals, more races than the cap), the sweep
// reports exactly the all-pairs scan's warnings, sentinel count included.
func TestPropertyRaceSweepMatchesAllPairs(t *testing.T) {
	var clean, racy, capped int
	prop := func(c raceCase) bool {
		sim := engine.New()
		r := &Runtime{bufWrites: buildIntervals(sim, "w", c.Writes), kernelUses: buildIntervals(sim, "k", c.Uses)}
		sim.Run()
		got, want := r.detectRaces(), naiveRaces(r.bufWrites, r.kernelUses)
		switch {
		case len(want) == 0:
			clean++
		case len(want) > maxRaceWarnings:
			capped++
		default:
			racy++
		}
		if !reflect.DeepEqual(got, want) {
			t.Logf("case %+v:\ngot  %q\nwant %q", c, got, want)
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 2000, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	if clean == 0 || racy == 0 || capped == 0 {
		t.Fatalf("generator missed a class: clean=%d racy=%d capped=%d", clean, racy, capped)
	}
}

// pipelineIntervals is a synthetic double-buffered pipeline shaped like a
// streamed cg probe at 50 blocks: each of steps blocks writes 8 arrays into
// one half of their double buffers while a kernel reads the other half plus
// one resident buffer — 8 writes and 9 kernel uses per step. With racy set,
// every prefetch targets the half the kernel is reading instead.
func pipelineIntervals(steps int, racy bool) *Runtime {
	const arrays = 8
	sim := engine.New()
	r := &Runtime{}
	use := func(buf string, end engine.Time, dur engine.Duration) {
		ev := sim.NewEvent("k")
		sim.At(end, ev.Fire)
		r.kernelUses = append(r.kernelUses, interval{buf: buf, label: "offload@1:1", done: ev, dur: dur, hiByte: 1 << 20})
	}
	for s := 0; s < steps; s++ {
		t0 := engine.Time(s) * 10
		half := s % 2
		next := 1 - half
		if racy {
			next = half
		}
		for a := 0; a < arrays; a++ {
			ev := sim.NewEvent("w")
			sim.At(t0+5, ev.Fire)
			r.bufWrites = append(r.bufWrites, interval{
				buf: fmt.Sprintf("a%d.%d", a, next), label: "src->dst", done: ev, dur: 5, hiByte: 1 << 20,
			})
			use(fmt.Sprintf("a%d.%d", a, half), t0+8, 8)
		}
		use("out", t0+8, 8)
	}
	sim.Run()
	return r
}

var raceSink []string

// BenchmarkDetectRaces times the post-run race scan on a probe-sized
// interval set: 32,000 DMA writes × 36,000 kernel uses.
func BenchmarkDetectRaces(b *testing.B) {
	for _, bc := range []struct {
		name string
		racy bool
	}{{"clean", false}, {"racy", true}} {
		b.Run(bc.name, func(b *testing.B) {
			r := pipelineIntervals(4000, bc.racy)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				raceSink = r.detectRaces()
			}
		})
	}
}
