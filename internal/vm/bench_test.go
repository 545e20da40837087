package vm_test

import (
	"testing"

	"comp/internal/interp"
	"comp/internal/vm"
	"comp/internal/workloads"
)

// benchEngine runs one workload end to end (Reset + Setup + Run on a null
// backend) per iteration under the selected engine.
func benchEngine(b *testing.B, name string, useVM bool) {
	wl, err := workloads.Get(name)
	if err != nil {
		b.Fatal(err)
	}
	p, err := interp.Compile(wl.Source)
	if err != nil {
		b.Fatal(err)
	}
	if useVM {
		if err := vm.Apply(p, vm.ExecVM); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Reset(); err != nil {
			b.Fatal(err)
		}
		if err := wl.Setup(p); err != nil {
			b.Fatal(err)
		}
		if err := p.Run(interp.NullBackend{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpCfd(b *testing.B) { benchEngine(b, "cfd", false) }
func BenchmarkVMCfd(b *testing.B)     { benchEngine(b, "cfd", true) }
func BenchmarkInterpNN(b *testing.B)  { benchEngine(b, "nn", false) }
func BenchmarkVMNN(b *testing.B)      { benchEngine(b, "nn", true) }

func BenchmarkInterpDedup(b *testing.B) { benchEngine(b, "dedup", false) }
func BenchmarkVMDedup(b *testing.B)     { benchEngine(b, "dedup", true) }

func BenchmarkInterpBS(b *testing.B) { benchEngine(b, "blackscholes", false) }
func BenchmarkVMBS(b *testing.B)     { benchEngine(b, "blackscholes", true) }

// vecLoopBench wraps one loop body in 8 repeats over 32768-element arrays
// (the same harness shape as BENCH_columnar.json's synthetic kernels).
func vecLoopBench(lo, body string) string {
	return `
float x[32768]; float y[32768]; float z[32768];
int main(void) {
    int it; int i;
    for (i = 0; i < 32768; i++) { x[i] = i * 0.25; y[i] = 32768 - i; z[i] = 0.0; }
    for (it = 0; it < 8; it++) {
        for (i = ` + lo + `; i < 32767; i++) { ` + body + ` }
    }
    printf("%g %g\n", z[100], z[32700]);
    return 0;
}`
}

// BenchmarkVecLoop times the batch tier's offset and broadcast sites: each
// case runs one program on the scalar VM (vm.NewEngine) and on the VM as
// vm.Apply builds it (batch tier on).
func BenchmarkVecLoop(b *testing.B) {
	for _, bc := range []struct{ name, src string }{
		{"stencil", vecLoopBench("1", `z[i] = x[i] + 0.1 * (x[i - 1] + x[i + 1] - 2.0 * x[i]) + 0.05 * y[i];`)},
		{"broadcast", vecLoopBench("0", `z[i] = (x[i] - y[i]) * y[0] + x[7] * 0.5;`)},
	} {
		for _, engine := range []string{scalarVM, vm.ExecVM} {
			b.Run(bc.name+"/"+engine, func(b *testing.B) {
				p, err := interp.Compile(bc.src)
				if err != nil {
					b.Fatal(err)
				}
				if err := attach(p, engine); err != nil {
					b.Fatal(err)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := p.Reset(); err != nil {
						b.Fatal(err)
					}
					if err := p.Run(interp.NullBackend{}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
