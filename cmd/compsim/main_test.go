package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestExecFlagTable pins the -exec contract: the two engine names are
// accepted silently, anything else is rejected with exit code 2 and a
// one-line usage error that names every valid mode.
func TestExecFlagTable(t *testing.T) {
	cases := []struct {
		mode string
		ok   bool
	}{
		{"vm", true},
		{"interp", true},
		{"", false},
		{"columnar", false},
		{"VM", false},
		{"Columnar", false},
		{"columnar ", false},
		{"jit", false},
		{"vm,interp", false},
	}
	for _, tc := range cases {
		var errb bytes.Buffer
		code := checkExec(tc.mode, &errb)
		if tc.ok {
			if code != 0 || errb.Len() != 0 {
				t.Errorf("-exec %q: exit %d, stderr %q; want silent success", tc.mode, code, errb.String())
			}
			continue
		}
		if code != 2 {
			t.Errorf("-exec %q: exit %d, want 2", tc.mode, code)
		}
		out := errb.String()
		if strings.Count(out, "\n") != 1 {
			t.Errorf("-exec %q: usage error is not one line:\n%s", tc.mode, out)
		}
		for _, want := range []string{"compsim:", "unknown exec mode", "interp", "vm"} {
			if !strings.Contains(out, want) {
				t.Errorf("-exec %q: usage error lacks %q: %s", tc.mode, want, out)
			}
		}
	}
}
