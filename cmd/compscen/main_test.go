package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestExecFlagTable pins the -exec contract end-to-end through run(): the
// three engine names are accepted, anything else exits 2 with a usage
// error whose first line names every valid mode.
func TestExecFlagTable(t *testing.T) {
	for _, mode := range []string{"vm", "interp", "columnar"} {
		code, _, stderr := runCLI("show", "-scenario", "steady", "-exec", mode)
		if code != 0 {
			t.Errorf("-exec %s: exit %d, stderr %s", mode, code, stderr)
		}
	}
	for _, mode := range []string{"", "VM", "Columnar", "jit", "vm,interp"} {
		code, _, stderr := runCLI("show", "-scenario", "steady", "-exec", mode)
		if code != 2 {
			t.Errorf("-exec %q: exit %d, want 2", mode, code)
		}
		first, _, _ := strings.Cut(stderr, "\n")
		for _, want := range []string{"compscen:", "unknown exec mode", "interp", "vm", "columnar"} {
			if !strings.Contains(first, want) {
				t.Errorf("-exec %q: first stderr line lacks %q: %s", mode, want, first)
			}
		}
		if !strings.Contains(stderr, "usage: compscen") {
			t.Errorf("-exec %q: stderr lacks usage text", mode)
		}
	}
}

// runCLI invokes the command the way main does and captures its streams.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errb bytes.Buffer
	code = run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUsageAndBadArgs(t *testing.T) {
	cases := [][]string{
		{},                                       // no command
		{"conquer"},                              // unknown command
		{"run"},                                  // no scenario selected
		{"run", "-scenario", "steady", "extra"},  // stray positional
		{"run", "-scenario", "steady", "-bogus"}, // unknown flag
		{"verify", "-scenario", "x", "-file", "y"}, // mutually exclusive
		{"list", "-json"},                          // list takes no flags
	}
	for _, args := range cases {
		code, _, stderr := runCLI(args...)
		if code != 2 {
			t.Errorf("compscen %v: exit %d, want 2", args, code)
		}
		if !strings.Contains(stderr, "usage: compscen") {
			t.Errorf("compscen %v: stderr lacks usage:\n%s", args, stderr)
		}
	}
}

func TestUnknownScenarioFails(t *testing.T) {
	code, _, stderr := runCLI("run", "-scenario", "no-such")
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown scenario") {
		t.Fatalf("stderr: %s", stderr)
	}
}

func TestList(t *testing.T) {
	code, stdout, _ := runCLI("list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, name := range []string{"steady", "overload", "burst", "diurnal", "deadline-heavy", "fault-storm", "hot-unplug", "mixed-chaos"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("list output lacks %s:\n%s", name, stdout)
		}
	}
}

func TestShowRoundTripsThroughFile(t *testing.T) {
	code, stdout, _ := runCLI("show", "-scenario", "overload")
	if code != 0 {
		t.Fatalf("show exit %d", code)
	}
	path := filepath.Join(t.TempDir(), "overload.json")
	if err := os.WriteFile(path, []byte(stdout), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out2, stderr := runCLI("run", "-file", path)
	if code != 0 {
		t.Fatalf("run -file exit %d: %s", code, stderr)
	}
	if !strings.Contains(out2, "invariants: ok") {
		t.Fatalf("run output lacks invariant check:\n%s", out2)
	}
}

func TestRunEmitsReportAndJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "result.json")
	code, stdout, stderr := runCLI("run", "-scenario", "overload", "-seed", "3", "-json", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{"scenario overload (seed 3)", "serve:", "invariants: ok"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("result JSON: %v", err)
	}
	if res.Scenario.Name != "overload" || res.Seed != 3 || res.Requests == 0 || len(res.Outcomes) != res.Requests {
		t.Fatalf("result shape: %+v", res)
	}
}

func TestVerifyCommand(t *testing.T) {
	code, stdout, stderr := runCLI("verify", "-scenario", "fault-storm")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "2 replays bit-identical, invariants ok") {
		t.Fatalf("stdout: %s", stdout)
	}
	if !strings.Contains(stdout, "faults") {
		t.Fatalf("verify summary lacks fault counters: %s", stdout)
	}
}

func TestTraceCommand(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	code, stdout, stderr := runCLI("trace", "-scenario", "burst", "-seed", "2", "-json", path)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "trace burst (seed 2)") {
		t.Fatalf("stdout: %s", stdout)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"requests"`) {
		t.Fatalf("trace JSON lacks requests: %.200s", raw)
	}
}

func TestSchedCommand(t *testing.T) {
	code, stdout, stderr := runCLI("sched", "-scenario", "steady")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(stdout, "2 replays bit-identical") {
		t.Fatalf("stdout: %s", stdout)
	}
}

func TestBadScenarioFileFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"name":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, stderr := runCLI("run", "-file", path)
	if code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(stderr, "windows") {
		t.Fatalf("stderr: %s", stderr)
	}
}
