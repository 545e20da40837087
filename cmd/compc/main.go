// Command compc is the COMP source-to-source compiler driver: it reads an
// offload-annotated MiniC file, applies the paper's optimizations, and
// prints the transformed source plus a report of what was applied.
//
// Usage:
//
//	compc file.c                       # all optimizations
//	compc -streaming=false file.c      # disable individual passes
//	compc -passes merge,streaming file.c  # explicit pipeline spec
//	compc -blocks 16 file.c            # fix the streaming block count
//	compc -tune file.c                 # pick pipeline + blocks with the cost-model tuner
//	compc -tune -tune-model m.json file.c  # persist the tuner's learned model across runs
//	compc -report file.c               # report only, no source
//	compc -remarks file.c              # full remark trail on stderr
//	compc -remarks-json file.c         # remark trail as JSON on stdout
package main

import (
	"flag"
	"fmt"
	"os"

	"comp/internal/core"
	"comp/internal/pass"
	"comp/internal/runtime"
	"comp/internal/tune"
)

func main() {
	streaming := flag.Bool("streaming", true, "enable data streaming (SIII)")
	reduceMem := flag.Bool("reduce-memory", true, "enable the double-buffer memory reduction (SIII-B)")
	persistent := flag.Bool("persistent", true, "enable MIC thread reuse (SIII-C)")
	merge := flag.Bool("merge", true, "enable offload merging (SIII-C)")
	regularize := flag.Bool("regularize", true, "enable regularization (SIV)")
	blocks := flag.Int("blocks", 0, "streaming block count (0 = default)")
	passes := flag.String("passes", "", "explicit pipeline `spec` (e.g. \"merge,streaming\"); overrides the per-pass flags")
	reportOnly := flag.Bool("report", false, "print only the optimization report")
	remarks := flag.Bool("remarks", false, "print the full remark trail (every applied and skipped decision) on stderr")
	remarksJSON := flag.Bool("remarks-json", false, "print the remark trail as JSON on stdout instead of the source")
	auto := flag.Bool("auto", false, "insert offload clauses into plain OpenMP code first (Apricot mode)")
	tuneFlag := flag.Bool("tune", false, "pick the pass pipeline and block count with the cost-model tuner (internal/tune); spends simulated probe runs, overrides -passes and the per-pass flags")
	tuneModel := flag.String("tune-model", "", "JSON `file` the -tune learned model is loaded from and saved back to (repeat compiles converge in 0-2 probes)")
	flag.Parse()

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: compc [flags] file.c")
		fmt.Fprintf(os.Stderr, "known passes for -passes: %v\n", pass.KnownPasses())
		flag.PrintDefaults()
		os.Exit(2)
	}
	src, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "compc:", err)
		os.Exit(1)
	}
	opt := core.Options{
		Streaming:    *streaming,
		ReduceMemory: *reduceMem,
		Persistent:   *persistent,
		Merge:        *merge,
		Regularize:   *regularize,
		Blocks:       *blocks,
	}
	var res *core.Result
	switch {
	case *tuneFlag:
		res, err = tuneCompile(string(src), flag.Arg(0), *tuneModel)
	case *passes != "":
		spec := *passes
		if *auto {
			spec = "auto-offload," + spec
		}
		res, err = core.OptimizeSpec(string(src), spec, opt.PassConfig())
	case *auto:
		res, err = core.OffloadAndOptimize(string(src), opt)
	default:
		res, err = core.Optimize(string(src), opt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "compc:", err)
		os.Exit(1)
	}
	if *remarks {
		fmt.Fprint(os.Stderr, res.Report.Remarks.Render())
	} else {
		for _, a := range res.Report.Applied {
			fmt.Fprintf(os.Stderr, "applied: %s\n", a)
		}
		for _, n := range res.Report.Notes {
			fmt.Fprintf(os.Stderr, "note: %s\n", n)
		}
	}
	if *remarksJSON {
		if err := res.Report.Remarks.WriteJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "compc:", err)
			os.Exit(1)
		}
		return
	}
	if !*reportOnly {
		fmt.Print(res.Source())
	}
}

// tuneCompile runs the cost-model tuner on the input (probing candidate
// configurations by simulated execution) and compiles the winning
// pipeline. With a model path the learned predictor persists across
// invocations, so recompiling the same or a similar file converges in 0-2
// probes.
func tuneCompile(src, key, modelPath string) (*core.Result, error) {
	model := tune.NewModel()
	if modelPath != "" {
		var err error
		if model, err = tune.LoadModel(modelPath); err != nil {
			return nil, err
		}
	}
	cfg := runtime.DefaultConfig()
	cfg.DisableTrace = true
	d, err := core.TuneSource(&tune.Tuner{Model: model}, key, src, cfg, nil)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "tuned: %s\n", d.Remark().Reason)
	if modelPath != "" {
		if err := model.Save(modelPath); err != nil {
			return nil, err
		}
	}
	return core.OptimizeTuned(src, &d.TuneDecision)
}
