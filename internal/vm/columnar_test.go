package vm_test

import (
	"strings"
	"testing"

	"comp/internal/interp"
	"comp/internal/vm"
)

// columnarModule compiles src and returns the bytecode module (the
// fused loops are a compile-time property; the batch tier being on or
// off at run time does not change the chunks).
func columnarModule(t *testing.T, src string) *vm.Module {
	t.Helper()
	p, err := interp.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v\nsource:\n%s", err, src)
	}
	e, err := vm.NewEngine(p)
	if err != nil {
		t.Fatalf("vm compile: %v\nsource:\n%s", err, src)
	}
	return e.Module()
}

// wrapLoop builds a complete program around one loop body over float
// arrays x/y/z (length 64), int arrays ia/ib (length 64), and scalars.
func wrapLoop(loop string) string {
	return `
float x[64]; float y[64]; float z[64];
int ia[64]; int ib[64];
float s; int n; int acc;
float h(float p) { return p + 1.0; }
int main(void) {
    int i;
    s = 0.5; n = 64;
    for (i = 0; i < 64; i++) { x[i] = i * 0.25 + 1.0; y[i] = 64 - i; z[i] = 0.0; ia[i] = i; ib[i] = i * 3 + 1; }
` + loop + `
    printf("%g %g %d\n", y[7], z[63], ia[40]);
    return 0;
}
`
}

// TestColumnarQualification pins which loop shapes the pattern-matcher
// accepts (emit a fused vector op) and which fall back to scalar bytecode.
func TestColumnarQualification(t *testing.T) {
	cases := []struct {
		name string
		loop string
		want int // vector loops in main beyond the 1 from the seeding loop
	}{
		{"saxpy", `for (i = 0; i < 64; i++) { y[i] = 2.5 * x[i] + y[i]; }`, 1},
		{"triad_scalar", `for (i = 0; i < n; i++) { z[i] = x[i] + s * y[i]; }`, 1},
		{"select", `for (i = 0; i < 64; i++) { z[i] = (x[i] > 2.0 ? 1.0 : 0.5) * y[i]; }`, 1},
		{"compound", `for (i = 0; i < 64; i++) { y[i] += x[i] * 0.5; }`, 1},
		{"incdec_site", `for (i = 0; i < 64; i++) { ia[i]++; }`, 1},
		{"temp_decl", `for (i = 0; i < 64; i++) { float t = x[i] * x[i]; z[i] = t + 1.0; }`, 1},
		{"builtin", `for (i = 0; i < 64; i++) { z[i] = sqrt(fabs(x[i])); }`, 1},
		{"iota", `for (i = 0; i < 64; i++) { z[i] = i * 0.5; }`, 1},
		{"int_mod_const", `for (i = 0; i < 64; i++) { ia[i] = ib[i] % 7; }`, 1},
		{"le_bound", `for (i = 0; i <= 60; i++) { z[i] = x[i]; }`, 1},
		{"eager_logic", `for (i = 0; i < 64; i++) { ia[i] = ((x[i] > 1.0) && (s < 60.0)); }`, 1},
		{"site_in_and_rhs", `for (i = 0; i < 64; i++) { ia[i] = ((s > 0.0) && (y[i] < 60.0)); }`, 0},
		{"shifted_index", `for (i = 0; i < 63; i++) { z[i] = x[i + 1]; }`, 1},
		{"stencil", `for (i = 1; i < 63; i++) { z[i] = x[i] + 0.1 * (x[i - 1] + x[i + 1] - 2.0 * x[i]); }`, 1},
		{"broadcast_const", `for (i = 0; i < 64; i++) { z[i] = x[i] * x[0]; }`, 1},
		{"broadcast_local", `int k = 5;
    for (i = 0; i < 64; i++) { z[i] = x[i] + y[k * 2 - 1]; }`, 1},
		{"shifted_store", `for (i = 0; i < 63; i++) { z[i + 1] = z[i + 1] * 0.5 + x[i]; }`, 1},

		{"reduction", `for (i = 0; i < 64; i++) { s += x[i]; }`, 0},
		{"user_call", `for (i = 0; i < 64; i++) { z[i] = h(x[i]); }`, 0},
		{"if_stmt", `for (i = 0; i < 64; i++) { if (x[i] > 2.0) { z[i] = 1.0; } }`, 0},
		{"gather", `for (i = 0; i < 64; i++) { z[i] = x[ia[i]]; }`, 0},
		{"carried_stencil", `for (i = 1; i < 64; i++) { z[i] = z[i - 1] + 1.0; }`, 0},
		{"written_broadcast", `for (i = 0; i < 64; i++) { z[i] = x[i] + z[0]; }`, 0},
		{"store_to_broadcast", `for (i = 0; i < 64; i++) { z[0] = x[i]; }`, 0},
		{"temp_subscript", `for (i = 0; i < 64; i++) { int t = 3; z[i] = x[t]; }`, 0},
		{"nonunit_step", `for (i = 0; i < 64; i += 2) { z[i] = x[i]; }`, 0},
		{"mod_by_var", `for (i = 0; i < 64; i++) { ia[i] = ib[i] % n; }`, 0},
		{"outer_scalar_write", `for (i = 0; i < 64; i++) { acc = ia[i]; }`, 0},
		{"printf_body", `for (i = 0; i < 64; i++) { printf("%g\n", x[i]); }`, 0},
		{"site_in_ternary_arm", `for (i = 0; i < 64; i++) { z[i] = (s > 0.0 ? x[i] : 0.0); }`, 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			src := wrapLoop("    " + tc.loop)
			mod := columnarModule(t, src)
			// The array-seeding loop in the harness itself qualifies.
			if got := mod.VecLoopCount() - 1; got != tc.want {
				t.Errorf("got %d vector loops (beyond the seed loop), want %d\nsource:\n%s", got, tc.want, src)
			}
			// Whatever the matcher decided, execution stays bit-identical.
			diffRun(t, src, nil, 0)
		})
	}
}

// TestColumnarEdgeCases sweeps tricky runtime shapes through the 3-way
// differential: ragged tails, faulting tails, fractional and non-constant
// bounds, budget exhaustion inside a batched loop, negative starts.
func TestColumnarEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		budget int64
	}{
		{"tail_fault", wrapLoop(`    for (i = 0; i < 80; i++) { z[i] = x[i % 64] * 0.0 + i; }
    for (i = 0; i < 80; i++) { y[i] = i; }`), 0},
		{"fractional_bound", `
float a[16]; float b[16]; float lim;
int main(void) {
    int i;
    lim = 5.5;
    for (i = 0; i < 16; i++) { a[i] = i; b[i] = 0.0; }
    for (i = 0; i < lim; i++) { b[i] = a[i] * 2.0; }
    printf("%g %g %d\n", b[5], b[6], i);
    return 0;
}`, 0},
		{"budget_mid_loop", wrapLoop(`    for (i = 0; i < 64; i++) { z[i] = x[i] + y[i]; }`), 90},
		{"budget_exact", wrapLoop(`    for (i = 0; i < 64; i++) { z[i] = x[i] + y[i]; }`), 64 + 64 + 2},
		{"negative_start", `
float a[8];
int main(void) {
    int i;
    for (i = -3; i < 4; i++) { a[i + 4] = 0.0; }
    printf("%d\n", i);
    return 0;
}`, 0},
		{"nan_bound", `
float a[8]; float lim;
int main(void) {
    int i;
    lim = sqrt(-1.0);
    for (i = 0; i < 8; i++) { a[i] = i; }
    for (i = 0; i < lim; i++) { a[i] = 1.0; }
    printf("%g %d\n", a[0], i);
    return 0;
}`, 0},
		{"parallel_vec", wrapLoop(`    #pragma omp parallel for
    for (i = 0; i < 64; i++) { z[i] = x[i] * y[i]; }`), 0},
		{"offload_vec", wrapLoop(`    #pragma offload target(mic:0) in(x, y : length(64)) out(z : length(64))
    #pragma omp parallel for
    for (i = 0; i < 64; i++) { z[i] = x[i] * y[i] + s; }`), 0},
		// f(x, x) makes p and q one array: the batch must see the alias
		// and leave the shifted copy to the scalar loop.
		{"aliased_shift", `
float x[64]; float w[64];
void f(float *p, float *q) {
    int i;
    for (i = 0; i < 63; i++) { p[i] = q[i + 1]; }
}
void g(float *p, float *q) {
    int i;
    for (i = 1; i < 64; i++) { p[i] = q[i - 1] * 2.0; }
}
int main(void) {
    int i;
    for (i = 0; i < 64; i++) { x[i] = i; w[i] = i; }
    f(x, x);
    g(w, w);
    f(w, x);
    printf("%g %g %g %g\n", x[0], x[62], w[5], w[63]);
    return 0;
}`, 0},
		// i - 1 hits index -1 on the first trip: the batch consumes
		// nothing and the scalar loop faults there.
		{"stencil_underflow", wrapLoop(`    for (i = 0; i < 64; i++) { z[i] = x[i - 1] + x[i]; }`), 0},
		// i + 1 runs off the end on the last trip, after a full batch.
		{"stencil_overflow", wrapLoop(`    for (i = 1; i < 64; i++) { z[i] = x[i + 1] - x[i - 1]; }`), 0},
		{"broadcast_past_end", wrapLoop(`    for (i = 0; i < 64; i++) { z[i] = x[i] + y[n]; }`), 0},
		{"offload_stencil", wrapLoop(`    #pragma offload target(mic:0) in(x, y : length(64)) inout(z : length(64))
    #pragma omp parallel for
    for (i = 1; i < 63; i++) { z[i] = x[i + 1] * y[0] + x[i - 1] * y[n - 1]; }`), 0},
		{"offload_broadcast_missing", wrapLoop(`    #pragma offload target(mic:0) in(x : length(64)) out(z : length(64))
    #pragma omp parallel for
    for (i = 0; i < 64; i++) { z[i] = x[i] * y[3]; }`), 0},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			diffRun(t, tc.src, nil, tc.budget)
		})
	}
}

// hotspotLoops and streamclusterLoops are small twins of the two heaviest
// suite workloads' kernels: hotspot's i - 1 / i + 1 stencil over ping-pong
// grids and streamcluster's wts[0] / ids[0] broadcasts (its third loop,
// an if body, stays scalar), each inside offload regions.
const hotspotLoops = `
float temp[40]; float temp2[40]; float power[40]; int n;
int main(void) {
    int s; int i;
    n = 40;
    for (i = 0; i < n; i++) { temp[i] = 300.0 + i * 0.5; power[i] = i * 0.01; }
    #pragma offload target(mic:0) inout(temp, temp2 : length(n)) in(power : length(n))
    for (s = 0; s < 3; s++) {
        #pragma omp parallel for
        for (i = 1; i < n - 1; i++) {
            temp2[i] = temp[i] + 0.1 * (temp[i - 1] + temp[i + 1] - 2.0 * temp[i]) + 0.05 * power[i];
        }
        #pragma omp parallel for
        for (i = 1; i < n - 1; i++) {
            temp[i] = temp2[i] + 0.1 * (temp2[i - 1] + temp2[i + 1] - 2.0 * temp2[i]) + 0.05 * power[i];
        }
    }
    printf("%g %g\n", temp[1], temp[38]);
    return 0;
}`

const streamclusterLoops = `
float px[40]; float py[40]; float wts[40]; float ids[40];
float cost[40]; float gain[40]; float assignv[40];
float cx; float cy; int n;
int main(void) {
    int it; int i;
    n = 40; cx = 0.5; cy = 0.25;
    for (i = 0; i < n; i++) { px[i] = i * 0.1; py[i] = 1.0 - i * 0.02; wts[i] = 1.5 + i; ids[i] = i; assignv[i] = 2.0; }
    for (it = 0; it < 3; it++) {
        #pragma offload target(mic:0) in(px, py, wts, ids : length(n)) out(cost : length(n))
        #pragma omp parallel for
        for (i = 0; i < n; i++) {
            float dx = px[i] - cx;
            float dy = py[i] - cy;
            cost[i] = (dx * dx + dy * dy) * wts[0] + ids[0] * 0.0;
        }
        #pragma offload target(mic:0) in(cost, wts, ids : length(n)) out(gain : length(n))
        #pragma omp parallel for
        for (i = 0; i < n; i++) {
            gain[i] = cost[i] * 0.5 + 1.0 + wts[0] * 0.0 + ids[0] * 0.0;
        }
        #pragma offload target(mic:0) in(gain, wts : length(n)) inout(assignv : length(n))
        #pragma omp parallel for
        for (i = 0; i < n; i++) {
            if (gain[i] < assignv[i] + wts[0] * 0.0) {
                assignv[i] = gain[i];
            }
        }
        cx = cx + 0.001;
        cy = cy - 0.0005;
    }
    printf("%g %g %g\n", cost[7], gain[39], assignv[3]);
    return 0;
}`

// TestColumnarWorkloadLoops: both kernels of each twin fuse (plus the
// seeding loop), the offset and broadcast sites survive a disassembly
// round trip, and the fused runs stay bit-identical — device-touch ranges
// included.
func TestColumnarWorkloadLoops(t *testing.T) {
	for _, tc := range []struct {
		name, src string
		want      int
	}{{"hotspot", hotspotLoops, 3}, {"streamcluster", streamclusterLoops, 3}} {
		t.Run(tc.name, func(t *testing.T) {
			mod := columnarModule(t, tc.src)
			if got := mod.VecLoopCount(); got != tc.want {
				t.Errorf("%d vector loops, want %d", got, tc.want)
			}
			text := vm.Disassemble(mod.Funcs[mod.Main])
			back, err := vm.Assemble(text)
			if err != nil {
				t.Fatalf("assemble: %v", err)
			}
			if again := vm.Disassemble(back); again != text {
				t.Errorf("disassembly does not round-trip:\n%s\nvs\n%s", text, again)
			}
			diffRun(t, tc.src, nil, 0)
		})
	}
}

// TestColumnarPeepholeInteraction: a non-vectorized outer loop that
// contains a fused vector op still gets its scalar superinstructions —
// the vector op neither blocks fusion around it nor gets absorbed.
func TestColumnarPeepholeInteraction(t *testing.T) {
	src := `
float a[32]; float b[32]; float s;
int main(void) {
    int it; int i;
    for (i = 0; i < 32; i++) { a[i] = i * 0.5; b[i] = 0.0; }
    for (it = 0; it < 4; it++) {
        if (s > 100.0) { s = 0.0; }
        for (i = 0; i < 32; i++) { b[i] = a[i] * 2.0 + b[i]; }
        s = s + b[31];
    }
    printf("%g\n", s);
    return 0;
}`
	mod := columnarModule(t, src)
	main := mod.Funcs[mod.Main]
	text := vm.Disassemble(main)
	if !strings.Contains(text, "VecLoop") {
		t.Fatalf("inner loop did not lower to a vector op:\n%s", text)
	}
	if !strings.Contains(text, "IncJmp") {
		t.Errorf("superinstruction fusion (IncJmp latch) did not fire alongside the vector op:\n%s", text)
	}
	diffRun(t, src, nil, 0)
}

// deepCopyChunk clones a chunk including its vector-loop descriptors so
// corruption tests cannot alias the compiled module.
func deepCopyChunk(ch *vm.Chunk) *vm.Chunk {
	cp := *ch
	cp.Code = append([]vm.Instr(nil), ch.Code...)
	cp.VecLoops = make([]*vm.VecLoopDesc, len(ch.VecLoops))
	for i, d := range ch.VecLoops {
		dd := *d
		dd.Upper = append([]vm.Instr(nil), d.Upper...)
		dd.Imms = append([]vm.VecImm(nil), d.Imms...)
		dd.Sites = append([]vm.VecSite(nil), d.Sites...)
		for j := range dd.Sites {
			dd.Sites[j].Index = append([]vm.Instr(nil), d.Sites[j].Index...)
		}
		dd.Prog = append([]vm.ColIns(nil), d.Prog...)
		cp.VecLoops[i] = &dd
	}
	return &cp
}

// TestVerifierRejectsVecLoopCorruption: the descriptor validator is not
// vacuous — every invariant the batch engine relies on trips it.
func TestVerifierRejectsVecLoopCorruption(t *testing.T) {
	mod := columnarModule(t, wrapLoop(`    for (i = 0; i < 64; i++) { z[i] = s * x[i] + y[i] * x[n - 60]; }`))
	ch := mod.Funcs[mod.Main]
	if len(ch.VecLoops) == 0 {
		t.Fatal("no vector loop to corrupt")
	}
	verify := func(mut func(d *vm.VecLoopDesc)) error {
		cp := deepCopyChunk(ch)
		mut(cp.VecLoops[len(cp.VecLoops)-1])
		return vm.VerifyChunk(cp, len(mod.Globals), len(mod.Funcs))
	}
	d0 := ch.VecLoops[len(ch.VecLoops)-1]
	if len(d0.Imms) == 0 || len(d0.Prog) == 0 || len(d0.Sites) == 0 {
		t.Fatalf("unexpected descriptor shape: %+v", d0)
	}

	if err := verify(func(d *vm.VecLoopDesc) { d.Prog[0].Kind = 99 }); err == nil {
		t.Error("unknown column op not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) {
		for i := range d.Prog {
			if d.Prog[i].Site >= 0 {
				d.Prog[i].Site = 100
				return
			}
		}
	}); err == nil {
		t.Error("out-of-range site index not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) {
		for i := range d.Prog {
			if d.Prog[i].Dst >= 0 {
				d.Prog[i].Dst = d.NRegs + 7
				return
			}
		}
	}); err == nil {
		t.Error("out-of-range destination register not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) { d.IotaReg = d.NRegs }); err == nil {
		t.Error("out-of-range iota register not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) { d.GuardSlot = -1 }); err == nil {
		t.Error("negative guard slot not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) { d.IdxSlot, d.IdxG = -1, -1 }); err == nil {
		t.Error("unbound induction variable not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) { d.Imms = append(d.Imms, d.Imms[0]) }); err == nil {
		t.Error("duplicate immediate destination not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) { d.Imms[0].A = 1 << 20 }); err == nil {
		t.Error("out-of-range immediate source not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) { d.Upper = nil }); err == nil {
		t.Error("missing bound block not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) { d.Upper[0].Op = vm.OpJmp }); err == nil {
		t.Error("jump inside a bound block not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) { d.Sites[0].A = 1 << 20 }); err == nil {
		t.Error("out-of-range site binding not rejected")
	}
	bc := -1 // the x[n - 60] broadcast site
	for i, s := range d0.Sites {
		if s.Index != nil {
			bc = i
		}
	}
	if bc < 0 {
		t.Fatalf("no broadcast site: %+v", d0.Sites)
	}
	if err := verify(func(d *vm.VecLoopDesc) { d.Sites[bc].Index[0].Op = vm.OpJmp }); err == nil {
		t.Error("jump inside a subscript block not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) { d.Sites[bc].Index = d.Sites[bc].Index[:0] }); err == nil {
		t.Error("empty subscript block not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) {
		for i := range d.Prog {
			if d.Prog[i].Site >= 0 {
				d.Prog[i].Site = int32(bc)
				return
			}
		}
	}); err == nil {
		t.Error("streaming a broadcast site not rejected")
	}
	if err := verify(func(d *vm.VecLoopDesc) {
		for i := range d.Imms {
			if d.Imms[i].A == int32(bc) && d.Imms[i].Dst >= 0 {
				d.Imms[i].A = int32((bc + 1) % len(d.Sites))
			}
		}
	}); err == nil {
		t.Error("broadcasting a streamed site not rejected")
	}
	// And the code-side reference: an OpVecLoop naming a missing
	// descriptor must be rejected too.
	cp := deepCopyChunk(ch)
	cp.VecLoops = cp.VecLoops[:0]
	if err := vm.VerifyChunk(cp, len(mod.Globals), len(mod.Funcs)); err == nil {
		t.Error("dangling OpVecLoop descriptor index not rejected")
	}
}
