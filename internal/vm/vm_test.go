package vm_test

import (
	"strings"
	"testing"

	"comp/internal/interp"
	"comp/internal/vm"
)

// deepNestSource builds an expression of the given nesting depth to force
// operand-stack growth well past any fixed-size fast path.
func deepNestSource(depth int) string {
	var sb strings.Builder
	sb.WriteString("float x;\nint main(void) {\n    x = ")
	for i := 0; i < depth; i++ {
		sb.WriteString("1.0 + (")
	}
	sb.WriteString("0.5")
	for i := 0; i < depth; i++ {
		sb.WriteString(")")
	}
	sb.WriteString(";\n    printf(\"%f\\n\", x);\n    return 0;\n}\n")
	return sb.String()
}

// maxLocalsSource declares and uses a large frame (200 numeric locals).
func maxLocalsSource() string {
	var sb strings.Builder
	sb.WriteString("float total;\nint main(void) {\n")
	for i := 0; i < 200; i++ {
		sb.WriteString("    float v")
		sb.WriteString(strings.Repeat("x", i%3))
		sb.WriteRune(rune('a' + i%26))
		sb.WriteString("_")
		sb.WriteString(string(rune('0' + i/26%10)))
		sb.WriteString(string(rune('0' + i/260)))
		sb.WriteString(";\n")
	}
	// Re-generate deterministically for the use sites.
	names := make([]string, 200)
	for i := range names {
		names[i] = "v" + strings.Repeat("x", i%3) + string(rune('a'+i%26)) + "_" +
			string(rune('0'+i/26%10)) + string(rune('0'+i/260))
	}
	for i, n := range names {
		sb.WriteString("    ")
		sb.WriteString(n)
		if i == 0 {
			sb.WriteString(" = 1.0;\n")
		} else {
			sb.WriteString(" = ")
			sb.WriteString(names[i-1])
			sb.WriteString(" * 1.0000001 + 0.125;\n")
		}
	}
	sb.WriteString("    total = ")
	sb.WriteString(names[199])
	sb.WriteString(";\n    printf(\"%g\\n\", total);\n    return 0;\n}\n")
	return sb.String()
}

// TestVMEdgeCases holds the VM to the tree-walker on the hand-picked traps:
// stack growth, fault parity, evaluation order, degenerate loops, and big
// frames. Every case is a differential run — the tree-walker IS the spec.
func TestVMEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		src    string
		budget int64
	}{
		{name: "deep_nesting_300", src: deepNestSource(300)},
		{name: "max_locals_200", src: maxLocalsSource()},
		{name: "int_div_by_zero", src: `
int a; int b;
int main(void) {
    b = 0;
    a = 7 / b;
    printf("unreached %d\n", a);
    return 0;
}`},
		{name: "int_mod_by_zero", src: `
int a; int b;
int main(void) {
    b = 0;
    a = 7 % b;
    return 0;
}`},
		// The tree-walker evaluates an integer division's denominator first
		// and faults before touching the numerator: only g's printf runs.
		{name: "div_by_zero_eval_order", src: `
int a;
int f(void) { printf("f\n"); return 3; }
int g(void) { printf("g\n"); return 0; }
int main(void) {
    a = f() / g();
    return 0;
}`},
		{name: "mod_eval_order_ok", src: `
int a;
int f(void) { printf("f\n"); return 7; }
int g(void) { printf("g\n"); return 3; }
int main(void) {
    a = f() % g();
    printf("%d\n", a);
    return 0;
}`},
		{name: "compound_div_by_zero", src: `
int a; int b;
int main(void) {
    a = 5;
    b = 0;
    a /= b;
    return 0;
}`},
		{name: "compound_mod_by_zero", src: `
int a; int b;
int main(void) {
    a = 5;
    b = 0;
    a %= b;
    return 0;
}`},
		{name: "float_div_by_zero_is_inf", src: `
float x; float z;
int main(void) {
    z = 0.0;
    x = 1.0 / z;
    printf("%f %f\n", x, -1.0 / z);
    return 0;
}`},
		// Short-circuit: the right operand must not run when the left
		// decides, and must run exactly once otherwise.
		{name: "short_circuit_and", src: `
int t;
int side(int v) { printf("side %d\n", v); return v; }
int main(void) {
    t = side(0) && side(1);
    printf("=%d\n", t);
    t = side(2) && side(0);
    printf("=%d\n", t);
    t = side(3) && side(4);
    printf("=%d\n", t);
    return 0;
}`},
		{name: "short_circuit_or", src: `
int t;
int side(int v) { printf("side %d\n", v); return v; }
int main(void) {
    t = side(5) || side(6);
    printf("=%d\n", t);
    t = side(0) || side(7);
    printf("=%d\n", t);
    t = side(0) || side(0);
    printf("=%d\n", t);
    return 0;
}`},
		{name: "ternary_lazy_branches", src: `
int a; int zero;
int main(void) {
    zero = 0;
    a = 1 ? 42 : 7 / zero;
    printf("%d\n", a);
    a = 0 ? 7 / zero : 43;
    printf("%d\n", a);
    return 0;
}`},
		{name: "empty_for_body", src: `
int i; int n;
int main(void) {
    n = 100;
    for (i = 0; i < n; i++) { }
    printf("%d\n", i);
    return 0;
}`},
		{name: "empty_while_body", src: `
int i;
int main(void) {
    i = 0;
    while (0) { }
    printf("%d\n", i);
    return 0;
}`},
		{name: "empty_omp_loop", src: `
int i; int n;
int main(void) {
    n = 64;
    #pragma omp parallel for
    for (i = 0; i < n; i++) { }
    printf("%d\n", i);
    return 0;
}`},
		{name: "loop_budget_exhausted", src: `
int i;
int main(void) {
    i = 0;
    while (i < 100000) {
        i = i + 1;
    }
    printf("%d\n", i);
    return 0;
}`, budget: 1000},
		{name: "call_depth_exceeded", src: `
int down(int n) { return down(n + 1); }
int main(void) {
    printf("%d\n", down(0));
    return 0;
}`},
		{name: "index_out_of_range", src: `
float a[8];
int i;
int main(void) {
    i = 9;
    a[i] = 1.0;
    return 0;
}`},
		{name: "negative_local_array_len", src: `
int n;
int main(void) {
    n = -4;
    float tmp[n];
    return 0;
}`},
		{name: "nil_pointer_deref", src: `
float *p;
int main(void) {
    p = 0;
    p[0] = 1.0;
    return 0;
}`},
		{name: "printf_missing_args", src: `
int main(void) {
    printf("%d %d %f\n", 11);
    return 0;
}`},
		// Arguments past the format's verbs are never evaluated — a
		// division by zero hiding there must not fire.
		{name: "printf_extra_args_unevaluated", src: `
int zero;
int main(void) {
    zero = 0;
    printf("%d\n", 5, 7 / zero);
    return 0;
}`},
		{name: "printf_percent_escape", src: `
int main(void) {
    printf("100%% of %d, %g, %e, %q\n", 3, 2.5, 1.25, 9);
    return 0;
}`},
		{name: "incdec_on_elements", src: `
float a[4]; int i;
int main(void) {
    for (i = 0; i < 4; i++) { a[i] = i; }
    a[2]++;
    a[0]--;
    i++;
    i--;
    printf("%f %f %d\n", a[2], a[0], i);
    return 0;
}`},
		{name: "compound_on_elements", src: `
float a[4]; int i;
int main(void) {
    for (i = 0; i < 4; i++) { a[i] = i + 1; }
    a[1] += a[2];
    a[3] *= 2.0;
    a[2] -= 0.5;
    printf("%f %f %f\n", a[1], a[3], a[2]);
    return 0;
}`},
		{name: "return_inside_loops", src: `
int i; int j;
int f(void) {
    for (i = 0; i < 10; i++) {
        for (j = 0; j < 10; j++) {
            if (i * 10 + j == 37) {
                return i * 100 + j;
            }
        }
    }
    return -1;
}
int main(void) {
    printf("%d\n", f());
    return 0;
}`},
		{name: "return_inside_offload", src: `
float a[16]; int n; int i;
int f(void) {
    #pragma offload target(mic:0) inout(a : length(n))
    #pragma omp parallel for
    for (i = 0; i < n; i++) {
        a[i] = a[i] + 1.0;
    }
    return 7;
}
int main(void) {
    n = 16;
    printf("%d\n", f());
    printf("%f\n", a[3]);
    return 0;
}`},
		{name: "malloc_and_rebind", src: `
float *p; int n; int i;
int main(void) {
    n = 8;
    p = malloc(n * 8);
    for (i = 0; i < n; i++) { p[i] = i * 0.5; }
    printf("%f %f\n", p[0], p[7]);
    free(p);
    return 0;
}`},
		{name: "device_rebind_fault", src: `
float *p; float a[8]; int n; int i;
int main(void) {
    n = 8;
    p = malloc(n * 8);
    #pragma offload target(mic:0) inout(a : length(n))
    #pragma omp parallel for
    for (i = 0; i < n; i++) {
        p = malloc(8);
        a[i] = 1.0;
    }
    return 0;
}`},
		{name: "break_continue", src: `
int i; int s;
int main(void) {
    s = 0;
    for (i = 0; i < 20; i++) {
        if (i % 3 == 0) {
            continue;
        }
        if (i > 14) {
            break;
        }
        s += i;
    }
    printf("%d %d\n", s, i);
    return 0;
}`},
		{name: "fall_off_end_retval", src: `
int a;
int noret(int x) {
    if (x > 100) {
        return x;
    }
}
int main(void) {
    a = noret(200);
    printf("%d\n", a);
    a = noret(1);
    printf("%d\n", a);
    return 0;
}`},
		{name: "builtin_two_arg", src: `
float x;
int main(void) {
    x = pow(2.0, 10.0) + fmin(3.0, 1.5) + fmax(-1.0, 0.25);
    printf("%f %f\n", x, fabs(-2.5) + floor(1.9) + ceil(0.1));
    return 0;
}`},
		{name: "shift_ops", src: `
int a; int b;
int main(void) {
    a = 3;
    b = a << 4;
    printf("%d %d\n", b, b >> 2);
    return 0;
}`},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			diffRun(t, tc.src, nil, tc.budget)
		})
	}
}

// TestApplyModes pins Apply's mode table: "" and every bytecode mode
// attach a VM engine, "interp" detaches it, and an unknown mode fails
// without touching the program's engine.
func TestApplyModes(t *testing.T) {
	p := interp.MustCompile(`int main(void) { return 0; }`)
	if p.Engine() != nil {
		t.Fatalf("interp.Compile attached %T", p.Engine())
	}
	for _, tc := range []struct {
		mode   string
		wantVM bool
	}{{"", true}, {vm.ExecInterp, false}, {vm.ExecVM, true}, {vm.ExecInterp, false}, {vm.ExecColumnar, true}} {
		if err := vm.Apply(p, tc.mode); err != nil {
			t.Fatalf("Apply(%q): %v", tc.mode, err)
		}
		if _, ok := p.Engine().(*vm.Engine); ok != tc.wantVM {
			t.Fatalf("Apply(%q): engine %T, want VM %v", tc.mode, p.Engine(), tc.wantVM)
		}
	}
	before := p.Engine()
	if err := vm.Apply(p, "jit"); err == nil || p.Engine() != before {
		t.Fatalf("Apply(\"jit\"): err %v, engine changed %v", err, p.Engine() != before)
	}
}
