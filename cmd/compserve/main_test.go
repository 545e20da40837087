package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"comp/internal/serve"
	"comp/internal/vm"
)

// TestExecFlagTable pins the -exec contract: the three engine names are
// accepted silently, anything else is rejected with exit code 2 and a
// one-line usage error that names every valid mode.
func TestExecFlagTable(t *testing.T) {
	cases := []struct {
		mode string
		ok   bool
	}{
		{"vm", true},
		{"interp", true},
		{"columnar", true},
		{"", false},
		{"VM", false},
		{"Columnar", false},
		{"jit", false},
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
		for _, want := range []string{"compserve:", "unknown exec mode", "interp", "vm", "columnar"} {
			if !strings.Contains(out, want) {
				t.Errorf("-exec %q: usage error lacks %q: %s", tc.mode, want, out)
			}
		}
	}
}

// TestValidateFlagDepsTable pins the mutually-exclusive flag contract:
// every fleet-only flag is rejected without -fleet, with a one-line error
// naming both the flag and its dependency; with -fleet all of them pass.
func TestValidateFlagDepsTable(t *testing.T) {
	for _, name := range fleetOnlyFlags {
		err := validateFlagDeps(false, map[string]bool{name: true})
		if err == nil {
			t.Errorf("-%s without -fleet accepted", name)
			continue
		}
		msg := err.Error()
		if strings.Count(msg, "\n") != 0 {
			t.Errorf("-%s: usage error is not one line: %q", name, msg)
		}
		for _, want := range []string{"-" + name, "requires -fleet"} {
			if !strings.Contains(msg, want) {
				t.Errorf("-%s: usage error lacks %q: %q", name, want, msg)
			}
		}
		if err := validateFlagDeps(true, map[string]bool{name: true}); err != nil {
			t.Errorf("-fleet -%s rejected: %v", name, err)
		}
	}
	if err := validateFlagDeps(false, map[string]bool{"clients": true, "verify": true}); err != nil {
		t.Errorf("single-server flags rejected without -fleet: %v", err)
	}
}

// TestValidateFleetShape pins the fleet-shape rejections behind the usage
// exit.
func TestValidateFleetShape(t *testing.T) {
	if err := validateFleetShape(2, 2, true); err != nil {
		t.Fatalf("default fleet shape rejected: %v", err)
	}
	bad := []struct {
		name           string
		hosts, devices int
		loss           bool
	}{
		{"zero hosts", 0, 2, false},
		{"zero devices", 2, 0, false},
		{"loss on a single device", 1, 1, true},
	}
	for _, c := range bad {
		if err := validateFleetShape(c.hosts, c.devices, c.loss); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
	if err := validateFleetShape(1, 1, false); err != nil {
		t.Errorf("single-device fleet without -loss rejected: %v", err)
	}
}

// TestRunFleetModeVerifies drives the sharded mode end to end at a small
// scale: loss + verify must succeed, meaning the trace double-replayed
// bit-identically through a device-loss fault storm.
func TestRunFleetModeVerifies(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet replay serves every request through the simulator twice")
	}
	if err := runFleetMode([]string{"nn"}, vm.ExecVM, 1, 2, 2, 8, 0, 0, 4, 2, 0, true, true, ""); err != nil {
		t.Fatal(err)
	}
}

// TestRunFleetServesAndAccounts drives the fleet helper directly with a
// small trace: every request must be answered, the report must account
// for all of them, and the collected outputs must be non-empty and
// self-consistent under sameOutputs.
func TestRunFleetServesAndAccounts(t *testing.T) {
	rep, outs, err := runFleet([]string{"nn"}, serve.Config{Streams: 2, QueueDepth: 8}, 4, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 8 || rep.Completed+rep.Shed+rep.Expired != 8 || rep.Failed != 0 {
		t.Fatalf("accounting: %+v", rep)
	}
	if int64(len(outs)) != rep.Completed {
		t.Fatalf("collected %d output sets for %d completions", len(outs), rep.Completed)
	}
	for id, o := range outs {
		if len(o) == 0 {
			t.Fatalf("request %s completed with no output arrays", id)
		}
		if !sameOutputs(o, o) {
			t.Fatalf("request %s: sameOutputs not reflexive", id)
		}
	}
	// All clients ran the same workload with the same plan: outputs agree
	// pairwise, and perturbing one element must be detected.
	var first map[string][]float64
	for _, o := range outs {
		if first == nil {
			first = o
			continue
		}
		if !sameOutputs(first, o) {
			t.Fatal("same-plan requests produced different outputs")
		}
	}
	for name, data := range first {
		if len(data) == 0 {
			continue
		}
		mutated := map[string][]float64{}
		for n, d := range first {
			mutated[n] = append([]float64(nil), d...)
		}
		mutated[name][0] += 1.0
		if sameOutputs(first, mutated) {
			t.Fatalf("sameOutputs missed a perturbed element in %s", name)
		}
		break
	}
	if sameOutputs(first, map[string][]float64{}) {
		t.Fatal("sameOutputs ignored a missing array set")
	}
}

func TestWriteJSONReport(t *testing.T) {
	rep, _, err := runFleet([]string{"nn"}, serve.Config{Streams: 2, QueueDepth: 4}, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := writeJSON(path, rep); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"submitted"`, `"planHitRatio"`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("JSON report missing %s", key)
		}
	}
	if err := writeJSON(filepath.Join(t.TempDir(), "no", "such", "dir.json"), rep); err == nil {
		t.Error("writeJSON to an unwritable path reported success")
	}
	if err := writeJSON("-", rep); err != nil {
		t.Errorf("writeJSON to stdout: %v", err)
	}
}

func TestSameOutputsMismatchedNames(t *testing.T) {
	a := map[string][]float64{"x": {1, 2}}
	b := map[string][]float64{"y": {1, 2}}
	if sameOutputs(a, b) {
		t.Error("sameOutputs matched maps with different array names")
	}
	if !sameOutputs(map[string][]float64{}, map[string][]float64{}) {
		t.Error("sameOutputs rejected two empty sets")
	}
	if sameOutputs(a, map[string][]float64{"x": {1, 3}}) {
		t.Error("sameOutputs missed a differing element")
	}
}

// TestParseMixValidatesNames pins the pre-flight workload validation: bad
// names and shared-memory benchmarks are rejected before a server starts.
func TestParseMixValidatesNames(t *testing.T) {
	mix, err := parseMix("nn, dedup,srad")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 3 || mix[1] != "dedup" {
		t.Fatalf("parseMix trimmed badly: %v", mix)
	}
	for _, spec := range []string{"", "nn,", "nope", "ferret", "nn,,srad"} {
		if _, err := parseMix(spec); err == nil {
			t.Errorf("parseMix(%q) accepted", spec)
		}
	}
}

// TestValidateShape pins the bad-arg-combo rejections behind the usage
// exit.
func TestValidateShape(t *testing.T) {
	if err := validateShape(64, 2, 4, 0, 0, 0); err != nil {
		t.Fatalf("default shape rejected: %v", err)
	}
	bad := []struct {
		name                                     string
		clients, requests, streams, queue, batch int
		deadline                                 time.Duration
	}{
		{"zero clients", 0, 2, 4, 0, 0, 0},
		{"zero requests", 4, 0, 4, 0, 0, 0},
		{"zero streams", 4, 2, 0, 0, 0, 0},
		{"negative queue", 4, 2, 4, -1, 0, 0},
		{"batch above queue", 4, 2, 4, 2, 8, 0},
		{"negative deadline", 4, 2, 4, 0, 0, -time.Second},
	}
	for _, c := range bad {
		if err := validateShape(c.clients, c.requests, c.streams, c.queue, c.batch, c.deadline); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}
}
