package vm

import (
	"testing"

	"comp/internal/interp"
)

// TestColumnarTierDefault: the batch tier is part of the VM Apply builds,
// and a bare NewEngine is the tier-off scalar reference. The differential
// tests cannot see the difference (both must be bit-identical), so the
// wiring is pinned here.
func TestColumnarTierDefault(t *testing.T) {
	p := interp.MustCompile(`int main(void) { return 0; }`)
	for _, mode := range []string{"", ExecVM} {
		if err := Apply(p, mode); err != nil {
			t.Fatal(err)
		}
		if e := p.Engine().(*Engine); !e.columnar {
			t.Errorf("Apply(%q) left the batch tier off", mode)
		}
	}
	e, err := NewEngine(p)
	if err != nil {
		t.Fatal(err)
	}
	if e.columnar {
		t.Error("NewEngine turned the batch tier on")
	}
}
