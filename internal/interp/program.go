package interp

import (
	"bytes"
	"fmt"

	"comp/internal/minic"
)

// Program is a compiled MiniC program ready to execute.
type Program struct {
	file  *minic.File
	check *minic.CheckResult

	gvars map[string]*gvar
	funcs map[string]*cfunc

	// Device-side memory (one coprocessor).
	devArr  map[string]*Array
	devCell map[string]*Cell

	out bytes.Buffer

	// sharedAllocs counts offload_shared_malloc calls (Table III's
	// "dynamic shared allocations").
	sharedAllocs int64

	// engine, when set, replaces the tree-walker for Run (internal/vm).
	engine Engine

	// loopBudget caps total loop iterations per Run (0 = unlimited);
	// enforced identically by the tree-walker and engines. See
	// SetLoopBudget.
	loopBudget int64
}

type gvar struct {
	name    string
	typ     minic.Type
	elem    minic.Type // element type for arrays/pointers, nil for scalars
	arrayly bool
	shared  bool
	cell    Cell
	arr     *Array
	decl    *minic.VarDecl
}

// Compile parses, checks, and compiles a MiniC source text.
func Compile(src string) (*Program, error) {
	f, err := minic.Parse(src)
	if err != nil {
		return nil, err
	}
	return CompileFile(f)
}

// CompileFile checks and compiles a parsed file. The program runs on the
// tree-walker until an engine is attached (vm.Apply).
func CompileFile(f *minic.File) (*Program, error) {
	res := minic.Check(f)
	if err := res.Err(); err != nil {
		return nil, err
	}
	p := &Program{
		file:    f,
		check:   res,
		gvars:   map[string]*gvar{},
		funcs:   map[string]*cfunc{},
		devArr:  map[string]*Array{},
		devCell: map[string]*Cell{},
	}
	c := &compiler{prog: p}
	if err := c.compile(); err != nil {
		return nil, err
	}
	if err := p.initGlobals(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustCompile is Compile that panics on error.
func MustCompile(src string) *Program {
	p, err := Compile(src)
	if err != nil {
		panic(err)
	}
	return p
}

// initGlobals allocates global arrays and evaluates scalar initializers.
func (p *Program) initGlobals() error {
	for _, g := range p.gvars {
		if !g.arrayly {
			if g.decl != nil && g.decl.Init != nil {
				v, ok := constFloat(g.decl.Init)
				if !ok {
					return fmt.Errorf("interp: global %s initializer must be constant", g.name)
				}
				g.cell.V = v
			}
			continue
		}
		if arr, ok := g.typ.(*minic.Array); ok && arr.Len != nil {
			n, ok := constIntExpr(arr.Len)
			if !ok {
				return fmt.Errorf("interp: global array %s needs a constant length", g.name)
			}
			g.arr = NewArrayFor(g.name, g.elem, n)
		}
		// Pointer globals stay nil until malloc'd or injected.
	}
	return nil
}

// Reset zeroes global state: arrays are re-created, scalars re-initialized,
// device memory and captured output cleared. It lets one compiled program
// run multiple times from a clean slate.
func (p *Program) Reset() error {
	p.devArr = map[string]*Array{}
	p.devCell = map[string]*Cell{}
	p.out.Reset()
	p.sharedAllocs = 0
	for _, g := range p.gvars {
		g.cell.V = 0
		g.arr = nil
	}
	return p.initGlobals()
}

// Run executes main() against the backend. Runtime faults (device OOM,
// missing device data, bounds) are returned as *RuntimeError.
func (p *Program) Run(b Backend) (err error) {
	main := p.funcs["main"]
	if main == nil {
		return fmt.Errorf("interp: program has no main function")
	}
	if len(main.params) > 0 {
		return fmt.Errorf("interp: main takes no parameters")
	}
	if p.engine != nil {
		return p.engine.Run(p, b)
	}
	defer func() {
		if r := recover(); r != nil {
			if re, ok := r.(*RuntimeError); ok {
				err = re
				return
			}
			panic(r)
		}
	}()
	env := &Env{p: p, backend: b, work: &Work{}}
	if p.loopBudget > 0 {
		env.budgetOn = true
		env.budget = p.loopBudget
	}
	env.call(main, nil, nil)
	// Flush trailing host work.
	if !env.work.Zero() {
		b.HostCompute(*env.work)
		*env.work = Work{}
	}
	return nil
}

// Output returns everything printf wrote.
func (p *Program) Output() string { return p.out.String() }

// SharedAllocs returns the number of offload_shared_malloc calls executed.
func (p *Program) SharedAllocs() int64 { return p.sharedAllocs }

// Scalar returns a global scalar's current value.
func (p *Program) Scalar(name string) (float64, error) {
	g := p.gvars[name]
	if g == nil || g.arrayly {
		return 0, fmt.Errorf("interp: no scalar global %q", name)
	}
	return g.cell.V, nil
}

// SetScalar stores a global scalar, for input injection.
func (p *Program) SetScalar(name string, v float64) error {
	g := p.gvars[name]
	if g == nil || g.arrayly {
		return fmt.Errorf("interp: no scalar global %q", name)
	}
	g.cell.V = v
	return nil
}

// ArrayData returns the backing data of a global array (host side).
func (p *Program) ArrayData(name string) ([]float64, error) {
	g := p.gvars[name]
	if g == nil || !g.arrayly || g.arr == nil {
		return nil, fmt.Errorf("interp: no allocated array global %q", name)
	}
	return g.arr.Data, nil
}

// SetArray replaces a global array/pointer's storage with the given data
// (one float per element for scalar arrays). The element layout comes from
// the declared type.
func (p *Program) SetArray(name string, data []float64) error {
	g := p.gvars[name]
	if g == nil || !g.arrayly {
		return fmt.Errorf("interp: no array global %q", name)
	}
	fields := 1
	var fieldOff map[string]int
	if st, ok := g.elem.(*minic.StructType); ok {
		fields = len(st.Fields)
		fieldOff = map[string]int{}
		for i, fl := range st.Fields {
			fieldOff[fl.Name] = i
		}
	}
	if len(data)%fields != 0 {
		return fmt.Errorf("interp: data length %d not a multiple of %d fields", len(data), fields)
	}
	g.arr = &Array{Name: name, Data: data, Fields: fields, FieldOff: fieldOff, ElemBytes: g.elem.Size()}
	return nil
}

// DeviceArray returns a device buffer's data, or nil if absent; tests use
// it to assert transfer semantics.
func (p *Program) DeviceArray(name string) []float64 {
	if a := p.devArr[name]; a != nil {
		return a.Data
	}
	return nil
}

// File returns the compiled file (for transforms and reporting).
func (p *Program) File() *minic.File { return p.file }

func constIntExpr(e minic.Expr) (int64, bool) {
	v, ok := constFloat(e)
	if !ok {
		return 0, false
	}
	return int64(v), true
}

func constFloat(e minic.Expr) (float64, bool) {
	switch x := e.(type) {
	case *minic.IntLit:
		return float64(x.Value), true
	case *minic.FloatLit:
		return x.Value, true
	case *minic.ParenExpr:
		return constFloat(x.X)
	case *minic.UnaryExpr:
		if x.Op == "-" {
			v, ok := constFloat(x.X)
			return -v, ok
		}
	case *minic.BinaryExpr:
		a, ok1 := constFloat(x.X)
		b, ok2 := constFloat(x.Y)
		if ok1 && ok2 {
			switch x.Op {
			case "+":
				return a + b, true
			case "-":
				return a - b, true
			case "*":
				return a * b, true
			case "/":
				if b != 0 {
					return a / b, true
				}
			}
		}
	}
	return 0, false
}
