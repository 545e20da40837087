package interp

import (
	"io"
	"sort"

	"comp/internal/minic"
)

// Engine is an alternative execution engine for a compiled Program. The
// canonical implementation is the bytecode VM in internal/vm; the
// tree-walker in this package is the reference semantics and stays around
// as the differential oracle for every engine.
//
// An Engine must be a drop-in for the tree-walker: bit-identical outputs
// (arrays, scalars, printf), the same Work reported to the Backend at the
// same flush points, and the same *RuntimeError (message and position) on
// every fault.
type Engine interface {
	Run(p *Program, b Backend) error
}

// SetEngine overrides this program's execution engine (nil = tree-walker).
func (p *Program) SetEngine(e Engine) { p.engine = e }

// Engine returns the installed engine, or nil when the tree-walker runs.
func (p *Program) Engine() Engine { return p.engine }

// ---- Engine-facing state access ----
//
// The accessors below expose the Program's mutable execution state to
// engines. They exist for internal/vm; nothing else should need them.

// GlobalHandle is an engine's stable handle to one global variable. The
// handle stays valid across Reset: Reset replaces the storage a handle
// points at, not the handle itself.
type GlobalHandle struct{ g *gvar }

// Valid reports whether the handle resolved.
func (h GlobalHandle) Valid() bool { return h.g != nil }

// Name returns the global's declared name.
func (h GlobalHandle) Name() string { return h.g.name }

// IsArray reports whether the global is an array or pointer.
func (h GlobalHandle) IsArray() bool { return h.g.arrayly }

// Shared reports the _Cilk_shared attribute.
func (h GlobalHandle) Shared() bool { return h.g.shared }

// Type returns the declared type.
func (h GlobalHandle) Type() minic.Type { return h.g.typ }

// Elem returns the element type (nil for scalars).
func (h GlobalHandle) Elem() minic.Type { return h.g.elem }

// Cell returns the host-side scalar storage (meaningful for scalars).
func (h GlobalHandle) Cell() *Cell { return &h.g.cell }

// Arr returns the current host-side array storage (nil when unallocated).
func (h GlobalHandle) Arr() *Array { return h.g.arr }

// SetArr rebinds the host-side array storage (global pointer assignment).
func (h GlobalHandle) SetArr(a *Array) { h.g.arr = a }

// Global resolves a global by name; the second result reports success.
func (p *Program) Global(name string) (GlobalHandle, bool) {
	g, ok := p.gvars[name]
	return GlobalHandle{g: g}, ok
}

// GlobalNames returns every global's name in sorted order.
func (p *Program) GlobalNames() []string {
	names := make([]string, 0, len(p.gvars))
	for n := range p.gvars {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// DevBuf returns the device copy of a buffer, or nil.
func (p *Program) DevBuf(name string) *Array { return p.devArr[name] }

// SetDevBuf installs a device buffer (offload allocation).
func (p *Program) SetDevBuf(name string, a *Array) { p.devArr[name] = a }

// DropDevBuf frees a device buffer (free_if semantics).
func (p *Program) DropDevBuf(name string) { delete(p.devArr, name) }

// DevScalar returns the device copy of a scalar, or nil if it was never
// transferred or written on the device.
func (p *Program) DevScalar(name string) *Cell { return p.devCell[name] }

// EnsureDevScalar returns the device copy of a scalar, creating it zeroed
// on first use (device-side store semantics).
func (p *Program) EnsureDevScalar(name string) *Cell {
	c := p.devCell[name]
	if c == nil {
		c = &Cell{}
		p.devCell[name] = c
	}
	return c
}

// OutWriter returns the printf sink.
func (p *Program) OutWriter() io.Writer { return &p.out }

// NoteSharedAlloc counts one offload_shared_malloc call.
func (p *Program) NoteSharedAlloc() { p.sharedAllocs++ }

// LoopBudget returns the configured per-run loop-iteration budget
// (0 = unlimited).
func (p *Program) LoopBudget() int64 { return p.loopBudget }

// SetLoopBudget caps the total loop iterations a single Run may execute
// across all loops (0 = unlimited). Both the tree-walker and any engine
// enforce the cap at the same program points with the same error, so
// differential harnesses can bound adversarial inputs without risking
// divergence. Intended for fuzzing; normal execution leaves it off.
func (p *Program) SetLoopBudget(n int64) { p.loopBudget = n }
