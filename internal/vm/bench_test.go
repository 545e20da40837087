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
