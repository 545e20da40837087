// Command compscen runs, replays and verifies serving-stack scenarios
// (internal/scenario): reproducible load traces with arrival processes,
// workload mixes, deadline distributions, fault storms, device hot-unplug
// and queue squeezes, all checked against the serving invariants.
//
// Usage:
//
//	compscen list                             # built-in scenarios
//	compscen run -scenario fault-storm        # one replay + invariant check
//	compscen run -file custom.json -seed 7    # scenario from a JSON file
//	compscen run -scenario steady -json -     # machine-readable result
//	compscen verify -scenario hot-unplug      # two replays, bit-identical evidence
//	compscen trace -scenario burst -seed 3    # dump the expanded request trace
//	compscen sched -scenario steady           # raw-scheduler replay (no serving layer)
//	compscen show -scenario mixed-chaos       # print a built-in as JSON
//
// Every command is deterministic in (scenario, seed): verify demands
// bit-identical per-request outcomes and ServerReport across two replays,
// which is the same check CI runs over every built-in.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"comp/internal/scenario"
	"comp/internal/vm"
)

// newFlagSet builds a subcommand flag set that reports parse errors to the
// caller instead of exiting.
func newFlagSet(cmd string, stderr io.Writer) *flag.FlagSet {
	fs := flag.NewFlagSet("compscen "+cmd, flag.ContinueOnError)
	fs.SetOutput(stderr)
	return fs
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

const usageText = `usage: compscen <command> [flags]

commands:
  list      list the built-in scenarios
  show      print a scenario as JSON
  run       replay a scenario once and check the serving invariants
  verify    replay twice and require bit-identical outcomes and report
  trace     print the deterministic request trace for (scenario, seed)
  sched     replay on the raw scheduler (no serving layer) and verify determinism

common flags (run/verify/trace/sched/show):
  -scenario name   a built-in scenario (see compscen list)
  -file path       a scenario JSON file instead of a built-in
  -seed n          trace seed (default 1)
  -json path       write the machine-readable result to path ("-" = stdout)
  -exec engine     MiniC execution engine where the scenario sets no exec:
                   vm (default), interp, or columnar
`

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprint(stderr, usageText)
		return 2
	}
	cmd, rest := args[0], args[1:]
	var err error
	switch cmd {
	case "list":
		if len(rest) > 0 {
			fmt.Fprintln(stderr, "compscen list takes no flags")
			fmt.Fprint(stderr, usageText)
			return 2
		}
		err = list(stdout)
	case "show", "run", "verify", "trace", "sched":
		var opts *cmdOpts
		opts, err = parseOpts(cmd, rest, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "compscen:", err)
			fmt.Fprint(stderr, usageText)
			return 2
		}
		switch cmd {
		case "show":
			err = show(opts, stdout)
		case "run":
			err = runOnce(opts, stdout)
		case "verify":
			err = verify(opts, stdout)
		case "trace":
			err = trace(opts, stdout)
		case "sched":
			err = sched(opts, stdout)
		}
	default:
		fmt.Fprintf(stderr, "compscen: unknown command %q\n", cmd)
		fmt.Fprint(stderr, usageText)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "compscen:", err)
		return 1
	}
	return 0
}

type cmdOpts struct {
	sc      *scenario.Scenario
	seed    int64
	jsonOut string
}

// parseOpts parses the shared flag set and resolves the scenario.
func parseOpts(cmd string, args []string, stderr io.Writer) (*cmdOpts, error) {
	fs := newFlagSet(cmd, stderr)
	name := fs.String("scenario", "", "built-in scenario name")
	file := fs.String("file", "", "scenario JSON file")
	seed := fs.Int64("seed", 1, "trace seed")
	jsonOut := fs.String("json", "", "write machine-readable result to path (\"-\" = stdout)")
	exec := fs.String("exec", vm.ExecVM, "MiniC execution engine where the scenario sets no exec: vm, interp, or columnar")
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if err := vm.CheckExecFlag(*exec); err != nil {
		return nil, err
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	sc, err := loadScenario(*name, *file)
	if err != nil {
		return nil, err
	}
	if sc.Server.Exec == "" {
		sc.Server.Exec = *exec
	}
	return &cmdOpts{sc: sc, seed: *seed, jsonOut: *jsonOut}, nil
}

// loadScenario resolves exactly one of a built-in name or a JSON file.
func loadScenario(name, file string) (*scenario.Scenario, error) {
	switch {
	case name == "" && file == "":
		return nil, fmt.Errorf("pick a scenario: -scenario <name> or -file <path>")
	case name != "" && file != "":
		return nil, fmt.Errorf("-scenario and -file are mutually exclusive")
	case name != "":
		return scenario.Lookup(name)
	default:
		data, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return scenario.ParseJSON(data)
	}
}

func list(w io.Writer) error {
	fmt.Fprintf(w, "%-16s %-8s %-9s %-6s %-7s %s\n", "NAME", "WINDOWS", "ARRIVAL", "MIX", "EVENTS", "DESCRIPTION")
	for _, sc := range scenario.Builtins() {
		fmt.Fprintf(w, "%-16s %-8d %-9s %-6d %-7d %s\n",
			sc.Name, sc.Windows, sc.Arrival.Process, len(sc.Mix), len(sc.Events), sc.Description)
	}
	return nil
}

func show(o *cmdOpts, w io.Writer) error {
	data, err := o.sc.JSON()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}

// result is the machine-readable shape run/verify emit with -json.
type result struct {
	Scenario *scenario.Scenario `json:"scenario"`
	Seed     int64              `json:"seed"`
	Requests int                `json:"requests"`
	Verified bool               `json:"verified"`
	Report   json.RawMessage    `json:"report"`
	Outcomes []scenario.Outcome `json:"outcomes,omitempty"`
}

func emit(o *cmdOpts, res *scenario.Result, verified bool) error {
	if o.jsonOut == "" {
		return nil
	}
	out := result{
		Scenario: res.Trace.Scenario,
		Seed:     res.Trace.Seed,
		Requests: len(res.Trace.Requests),
		Verified: verified,
		Report:   json.RawMessage(res.ReportJSON),
		Outcomes: res.Outcomes,
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	return writeOut(o.jsonOut, append(data, '\n'))
}

func writeOut(path string, data []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func runOnce(o *cmdOpts, w io.Writer) error {
	res, err := scenario.Replay(o.sc, o.seed)
	if err != nil {
		return err
	}
	if err := res.CheckInvariants(); err != nil {
		return fmt.Errorf("invariant violation: %w", err)
	}
	fmt.Fprintf(w, "scenario %s (seed %d): %d requests over %d windows\n",
		o.sc.Name, o.seed, len(res.Trace.Requests), o.sc.Windows)
	fmt.Fprint(w, res.Report.Format())
	fmt.Fprintln(w, "invariants: ok")
	return emit(o, res, false)
}

func verify(o *cmdOpts, w io.Writer) error {
	res, err := scenario.Verify(o.sc, o.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "verify %s (seed %d): %d requests, 2 replays bit-identical, invariants ok\n",
		o.sc.Name, o.seed, len(res.Trace.Requests))
	fmt.Fprintf(w, "  completed %d, shed %d, expired %d, failed %d, invalid %d; faults %d, retries %d, fallbacks %d\n",
		res.Report.Completed, res.Report.Shed, res.Report.Expired, res.Report.Failed, res.Report.Invalid,
		res.Report.FaultsInjected, res.Report.Retries, res.Report.Fallbacks)
	return emit(o, res, true)
}

func trace(o *cmdOpts, w io.Writer) error {
	tr, err := o.sc.Generate(o.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "trace %s (seed %d): %d requests over %d windows of %v\n",
		o.sc.Name, o.seed, len(tr.Requests), o.sc.Windows, tr.Window)
	if o.jsonOut == "" {
		return nil
	}
	data, err := json.MarshalIndent(tr, "", "  ")
	if err != nil {
		return err
	}
	return writeOut(o.jsonOut, append(data, '\n'))
}

func sched(o *cmdOpts, w io.Writer) error {
	rep, err := scenario.VerifyScheduler(o.sc, o.seed)
	if err != nil {
		return err
	}
	var faults, retries int64
	for _, ws := range rep.Windows {
		faults += ws.FaultsInjected
		retries += ws.Retries
	}
	fmt.Fprintf(w, "sched %s (seed %d): %d requests executed over %d windows (%d skipped), 2 replays bit-identical\n",
		o.sc.Name, o.seed, len(rep.Outputs), len(rep.Windows), rep.Skipped)
	fmt.Fprintf(w, "  faults %d, retries %d\n", faults, retries)
	if o.jsonOut == "" {
		return nil
	}
	return writeOut(o.jsonOut, append(rep.StatsJSON, '\n'))
}
