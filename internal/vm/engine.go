package vm

import (
	"fmt"

	"comp/internal/interp"
)

// Engine executes a compiled Module as a drop-in replacement for the
// tree-walker. One Engine is bound to one Program; each Run gets a fresh
// machine, so an Engine is reusable across Reset/Run cycles.
type Engine struct {
	mod *Module
	// columnar enables the batched columnar tier for qualifying loops;
	// the bytecode is identical either way (OpVecLoop is a no-op when off).
	columnar bool
}

// NewEngine compiles a Program to bytecode.
func NewEngine(p *interp.Program) (*Engine, error) {
	mod, err := CompileProgram(p)
	if err != nil {
		return nil, err
	}
	return &Engine{mod: mod}, nil
}

// Module returns the compiled bytecode (for disassembly and tests).
func (e *Engine) Module() *Module { return e.mod }

// Run implements interp.Engine: execute main() against the backend,
// converting VM faults to *interp.RuntimeError exactly like the
// tree-walker's Run.
func (e *Engine) Run(p *interp.Program, b interp.Backend) (err error) {
	if p != e.mod.Prog {
		return fmt.Errorf("vm: engine bound to a different program")
	}
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*interp.RuntimeError); ok {
				err = re
				return
			}
			panic(r)
		}
	}()
	m := &machine{p: p, backend: b, mod: e.mod, colOn: e.columnar}
	m.work = &m.hostWork
	m.refreshBucket()
	if n := p.LoopBudget(); n > 0 {
		m.budgetOn = true
		m.budget = n
	}
	m.callFunc(e.mod.Funcs[e.mod.Main], nil, nil)
	// Flush trailing host work.
	if !m.hostWork.Zero() {
		b.HostCompute(m.hostWork)
		m.hostWork = interp.Work{}
	}
	return nil
}

// Exec modes: the values Apply and the cmds' -exec flag accept.
const (
	ExecInterp   = "interp"
	ExecVM       = "vm"
	ExecColumnar = "columnar"
)

// Apply pins one program's engine from an exec-mode string: "vm" (and "",
// so every unset Exec setting runs the VM) compiles it to bytecode,
// "columnar" does the same with the batch tier on, and "interp" keeps the
// tree-walker.
func Apply(p *interp.Program, mode string) error {
	bytecode, columnar, err := parseMode(mode)
	if err != nil {
		return err
	}
	if !bytecode {
		p.SetEngine(nil)
		return nil
	}
	e, err := NewEngine(p)
	if err != nil {
		return err
	}
	e.columnar = columnar
	p.SetEngine(e)
	return nil
}

// CheckExecFlag validates a -exec flag value against the modes Apply
// accepts, except "": that is Apply's default, not a flag value.
func CheckExecFlag(mode string) error {
	if mode == "" {
		return unknownMode(mode)
	}
	_, _, err := parseMode(mode)
	return err
}

// parseMode reports whether mode runs bytecode and, if so, whether the
// columnar tier is on.
func parseMode(mode string) (bytecode, columnar bool, err error) {
	switch mode {
	case "", ExecVM:
		return true, false, nil
	case ExecColumnar:
		return true, true, nil
	case ExecInterp:
		return false, false, nil
	}
	return false, false, unknownMode(mode)
}

func unknownMode(mode string) error {
	return fmt.Errorf("unknown exec mode %q (want %s, %s, or %s)", mode, ExecInterp, ExecVM, ExecColumnar)
}
