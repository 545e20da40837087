package vm

import (
	"comp/internal/analysis"
	"comp/internal/minic"
)

// The columnar tier compiles qualifying for loops into one VecLoopDesc: a
// fused element-wise kernel the machine executes in blocked batches over
// slices of the backing arrays, instead of per-element push/pop bytecode.
// Qualification is strict by design — the descriptor must charge the same
// Work, touch the same device ranges, and compute bit-identical values as
// the scalar loop it fast-forwards, so anything that could diverge
// (gathers, calls, writes to outer scalars, faultable divisions, values
// carried from one iteration to the next) falls back to the scalar
// bytecode, which stays compiled and unchanged right after the OpVecLoop.

// colBlock is the batch width: one dispatch of the column program covers
// up to this many iterations. 256 doubles = 2KB per register column, small
// enough to stay cache-resident across a dozen registers while amortizing
// the per-op dispatch to ~1/256 of the scalar cost.
const colBlock = 256

// VecImm kinds: where an immediate (loop-invariant broadcast) register's
// value comes from at batch entry.
const (
	vimConst  int32 = iota // Consts[A]
	vimLocal               // frame slot A
	vimGlobal              // global A (device-aware read)
	vimSite                // the element invariant site A addresses
)

// VecImm broadcasts one loop-invariant scalar into register Dst before the
// batch runs. The loop body cannot assign non-temporary scalars (the
// qualifier rejects those loops), nor write an array it reads through a
// broadcast site (the qualifier and the batch's alias check reject
// those), so one broadcast per batch is exact.
type VecImm struct {
	Kind, A, Dst int32
}

// VecSite is one array access of the kernel. Local sites name a ref slot;
// global sites a module global (resolved device-aware, like OpRefG, at
// batch entry). A site either streams a[i + Off] (a column window shifted
// by the constant Off) or, when Index is set, reads the one element
// a[Index] the loop-invariant mini-block Index addresses (a broadcast).
type VecSite struct {
	Local bool
	A     int32
	Off   int32
	Index []Instr
}

// Column-program opcodes. Each processes one block of lanes.
const (
	cLoad  int32 = iota // bind Dst to Sites[Site]'s backing slice window
	cStore              // store X's column into Sites[Site]'s window
	cMov
	cTrunc
	cNeg
	cNot
	cAdd
	cSub
	cMul
	cDivF
	cDivI // divisor must be a nonzero constant immediate (verified)
	cMod  // divisor must be a nonzero (as int64) constant immediate
	cShl
	cShr
	cEq
	cNe
	cLt
	cLe
	cGt
	cGe
	cAndE // eager &&; operands are pure, so eager == short-circuit
	cOrE
	cSel // Dst = X != 0 ? Y : Z (both branches pure, evaluated eagerly)
	cSqrt
	cExp
	cLog
	cPow
	cFabs
	cFloor
	cCeil
	cFmin
	cFmax
	cColCount
)

// colInfo drives the verifier and the disassembler: operand-register count
// (X, Y, Z prefix), whether the op writes Dst, and whether it names a site.
var colInfo = [cColCount]struct {
	name   string
	args   int
	hasDst bool
	site   bool
}{
	cLoad:  {"Load", 0, true, true},
	cStore: {"Store", 1, false, true},
	cMov:   {"Mov", 1, true, false},
	cTrunc: {"Trunc", 1, true, false},
	cNeg:   {"Neg", 1, true, false},
	cNot:   {"Not", 1, true, false},
	cAdd:   {"Add", 2, true, false},
	cSub:   {"Sub", 2, true, false},
	cMul:   {"Mul", 2, true, false},
	cDivF:  {"DivF", 2, true, false},
	cDivI:  {"DivI", 2, true, false},
	cMod:   {"Mod", 2, true, false},
	cShl:   {"Shl", 2, true, false},
	cShr:   {"Shr", 2, true, false},
	cEq:    {"Eq", 2, true, false},
	cNe:    {"Ne", 2, true, false},
	cLt:    {"Lt", 2, true, false},
	cLe:    {"Le", 2, true, false},
	cGt:    {"Gt", 2, true, false},
	cGe:    {"Ge", 2, true, false},
	cAndE:  {"AndE", 2, true, false},
	cOrE:   {"OrE", 2, true, false},
	cSel:   {"Sel", 3, true, false},
	cSqrt:  {"Sqrt", 1, true, false},
	cExp:   {"Exp", 1, true, false},
	cLog:   {"Log", 1, true, false},
	cPow:   {"Pow", 2, true, false},
	cFabs:  {"Fabs", 1, true, false},
	cFloor: {"Floor", 1, true, false},
	cCeil:  {"Ceil", 1, true, false},
	cFmin:  {"Fmin", 2, true, false},
	cFmax:  {"Fmax", 2, true, false},
}

// colBuiltin maps OpBuiltin kinds to their columnar counterparts.
var colBuiltin = map[int]int32{
	bSqrt: cSqrt, bExp: cExp, bLog: cLog, bPow: cPow, bFabs: cFabs,
	bFloor: cFloor, bCeil: cCeil, bFmin: cFmin, bFmax: cFmax,
}

// ColIns is one column-program instruction. Unused operands are -1.
type ColIns struct {
	Kind, Dst, X, Y, Z, Site int32
}

// VecLoopDesc is one fused loop kernel. At runtime the machine reads the
// live induction variable, evaluates the bound block, clamps the batch to
// the shortest site (so faulting iterations replay natively in the scalar
// tail), executes Prog over blocked columns, then charges K*PerIter,
// advances the index, guard, budget, and device-touch state exactly as K
// scalar iterations would have, and falls through to the scalar head.
type VecLoopDesc struct {
	IdxSlot   int32 // induction variable frame slot, -1 when global
	IdxG      int32 // induction variable global index, -1 when local
	GuardSlot int32 // the loop's hidden guard counter slot
	Par       bool  // loop head uses OpGuardPar/OpIterTick semantics
	LE        bool  // condition is i <= bound (else i < bound)
	IotaReg   int32 // register holding the lane indices, -1 if unused
	NRegs     int32 // total register columns

	// PerIter is the summed per-iteration cost: the condition's charge,
	// every body statement's charge, and the post statement's charge —
	// identical, by construction, to what the scalar encoding charges
	// across one trip through the loop.
	PerIter WorkTriple

	Upper []Instr // mini-block computing the loop bound (pure, verified)
	Imms  []VecImm
	Sites []VecSite
	Prog  []ColIns
}

// writes reports whether the column program stores through site si.
func (d *VecLoopDesc) writes(si int) bool {
	for _, in := range d.Prog {
		if in.Kind == cStore && int(in.Site) == si {
			return true
		}
	}
	return false
}

// conflict reports whether sites si and sj must not address the same
// array: one of them is written and, in one iteration, they address
// different elements (different offsets, or an invariant subscript). The
// batch runs each instruction across all lanes before the next one, so
// such a pair would carry a value from one iteration into another where
// the scalar loop carries none, or miss one it carries.
func (d *VecLoopDesc) conflict(si, sj int) bool {
	s, t := d.Sites[si], d.Sites[sj]
	if s.Index == nil && t.Index == nil && s.Off == t.Off {
		return false
	}
	return d.writes(si) || d.writes(sj)
}

// VecLoopCount reports the number of fused loops across the module (for
// benchmarks and tests asserting the tier actually engaged).
func (m *Module) VecLoopCount() int {
	n := 0
	for _, ch := range m.Funcs {
		n += len(ch.VecLoops)
	}
	return n
}

func stripParens(e minic.Expr) minic.Expr {
	for {
		p, ok := e.(*minic.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// tryVecLoop qualifies one for loop for the columnar tier and lowers its
// body to a column program. A nil return means "scalar only"; it must
// leave no trace in the chunk beyond possibly interned constants.
func (c *comp) tryVecLoop(fs *minic.ForStmt, par bool, guardSlot int) *VecLoopDesc {
	info, err := analysis.Analyze(fs, c.file)
	if err != nil || !info.Vectorizable() || info.Step != 1 || info.IndexVar == "" {
		return nil
	}
	bnd, ok := c.lookup(info.IndexVar)
	if !ok || !isIntType(bnd.typ) {
		return nil
	}
	d := &VecLoopDesc{
		IdxSlot: -1, IdxG: -1, GuardSlot: int32(guardSlot),
		Par: par, IotaReg: -1,
	}
	switch bnd.kind {
	case bindLocal:
		d.IdxSlot = int32(bnd.slot)
	case bindGlobal:
		d.IdxG = int32(bnd.gidx)
	default:
		return nil
	}
	cond, ok := fs.Cond.(*minic.BinaryExpr)
	if !ok {
		return nil
	}
	lhs, ok := stripParens(cond.X).(*minic.Ident)
	if !ok || lhs.Name != info.IndexVar {
		return nil
	}
	switch cond.Op {
	case "<":
	case "<=":
		d.LE = true
	default:
		return nil
	}
	if !c.pureBound(cond.Y, info.IndexVar) {
		return nil
	}
	// Condition cost mirrors the scalar head's charge, computed (like the
	// scalar compile) before the loop variable is pushed.
	condK, err := c.staticCost(fs.Cond)
	if err != nil {
		return nil
	}

	v := &colComp{
		c: c, d: d, ivar: info.IndexVar,
		temps:  map[string]colTemp{},
		imms:   map[[2]int32]int32{},
		consts: map[int32]float64{},
		sites:  map[[3]int32]int32{},
		views:  map[int32]int32{},
	}
	total := condK
	c.loopVars = append(c.loopVars, info.IndexVar)
	lowered := true
	for _, s := range fs.Body.Stmts {
		k, sok := v.stmt(s)
		if !sok {
			lowered = false
			break
		}
		total = cost{total.w + k.w, total.b + k.b, total.irr + k.irr}
	}
	c.loopVars = c.loopVars[:len(c.loopVars)-1]
	if !lowered || len(d.Sites) == 0 {
		return nil
	}
	// An array written in the body is accessed at one offset only, and
	// never through an invariant subscript: a[i] = a[i - 1] + 1 carries a
	// value from one iteration into the next, and a[0] = x[i] keeps only
	// the last. (Different bindings that alias at run time are the
	// batch's check.)
	for si, s := range d.Sites {
		for sj, t := range d.Sites[:si+1] {
			if s.Local == t.Local && s.A == t.A && d.conflict(si, sj) {
				return nil
			}
		}
	}
	postK, ok := c.postCost(fs.Post)
	if !ok {
		return nil
	}
	total = cost{total.w + postK.w, total.b + postK.b, total.irr + postK.irr}
	d.PerIter = WorkTriple{W: total.w, B: total.b, Irr: total.irr}
	up, err := c.miniBlock(cond.Y)
	if err != nil || len(up) == 0 {
		return nil
	}
	d.Upper = up
	return d
}

// pureBound accepts loop-bound expressions that are loop-invariant and
// side-effect free: literals, scalar reads, and +/-/* arithmetic. The
// resulting mini-block is evaluated once per batch where the scalar head
// evaluates the condition every iteration, so anything impure disqualifies.
func (c *comp) pureBound(e minic.Expr, ivar string) bool {
	switch x := e.(type) {
	case *minic.IntLit, *minic.FloatLit, *minic.SizeofExpr:
		return true
	case *minic.ParenExpr:
		return c.pureBound(x.X, ivar)
	case *minic.Ident:
		if x.Name == ivar {
			return false
		}
		bnd, ok := c.lookup(x.Name)
		if !ok || isRefType(bnd.typ) {
			return false
		}
		return bnd.kind == bindLocal || bnd.kind == bindGlobal
	case *minic.UnaryExpr:
		return x.Op == "-" && c.pureBound(x.X, ivar)
	case *minic.BinaryExpr:
		switch x.Op {
		case "+", "-", "*":
			return c.pureBound(x.X, ivar) && c.pureBound(x.Y, ivar)
		}
	}
	return false
}

// postCost mirrors the scalar compile's charge for the post statement.
// The analysis already pinned the post to i++ or i += <positive const>
// with step 1; both shapes charge exactly {1, 0, 0} (the index is a plain
// scalar, so the lvalue contributes no bytes).
func (c *comp) postCost(s minic.Stmt) (cost, bool) {
	switch x := s.(type) {
	case *minic.IncDecStmt:
		return cost{1, 0, 0}, true
	case *minic.AssignStmt:
		k, err := c.staticCost(x.RHS)
		if err != nil {
			return cost{}, false
		}
		return cost{k.w + 1, k.b, k.irr}, true
	}
	return cost{}, false
}

// colTemp is a body-declared scalar lowered to a register column.
type colTemp struct {
	reg      int32
	intTyped bool
}

// colComp lowers one loop body to a column program. Every cost it returns
// is computed with the compiler's own staticCost machinery, so the charges
// are the scalar encoding's charges by construction, not a re-derivation.
type colComp struct {
	c    *comp
	d    *VecLoopDesc
	ivar string

	temps   map[string]colTemp
	imms    map[[2]int32]int32 // (kind, A) -> broadcast register
	consts  map[int32]float64  // constant-immediate register -> value
	sites   map[[3]int32]int32 // (binding kind, A, Off) -> streamed site index
	siteInt []bool
	views   map[int32]int32 // site index -> bound view register

	// lazy counts enclosing lazily-evaluated contexts (&&/|| right sides,
	// ?: branches). The scalar engine may skip those subexpressions, so a
	// site inside one could touch device ranges the oracle never touches —
	// sites there disqualify the loop. Pure arithmetic is fine: evaluating
	// it eagerly changes no observable value.
	lazy int
}

func (v *colComp) newReg() int32 {
	r := v.d.NRegs
	v.d.NRegs++
	return r
}

func (v *colComp) emit(kind, dst, x, y, z, site int32) {
	v.d.Prog = append(v.d.Prog, ColIns{Kind: kind, Dst: dst, X: x, Y: y, Z: z, Site: site})
}

func (v *colComp) immReg(kind, a int32) int32 {
	key := [2]int32{kind, a}
	if r, ok := v.imms[key]; ok {
		return r
	}
	r := v.newReg()
	v.imms[key] = r
	v.d.Imms = append(v.d.Imms, VecImm{Kind: kind, A: a, Dst: r})
	return r
}

func (v *colComp) constImm(val float64) int32 {
	r := v.immReg(vimConst, v.c.constIdx(val))
	v.consts[r] = val
	return r
}

func (v *colComp) iotaReg() int32 {
	if v.d.IotaReg < 0 {
		v.d.IotaReg = v.newReg()
	}
	return v.d.IotaReg
}

// siteOf qualifies one array access as a site: a non-shadowed array name
// with a basic (single-field) element type, outside any lazily-evaluated
// context, subscripted by the induction variable plus or minus an integer
// constant (a streamed site) or by a loop-invariant expression (a
// broadcast site).
func (v *colComp) siteOf(x *minic.IndexExpr) (int32, bool) {
	if v.lazy > 0 {
		return 0, false
	}
	id, ok := stripParens(x.X).(*minic.Ident)
	if !ok {
		return 0, false
	}
	if _, shadowed := v.temps[id.Name]; shadowed {
		return 0, false
	}
	bnd, found := v.c.lookup(id.Name)
	if !found || !isRefType(bnd.typ) {
		return 0, false
	}
	elem, ok := minic.ElemOf(bnd.typ).(*minic.Basic)
	if !ok {
		return 0, false
	}
	var s VecSite
	switch bnd.kind {
	case bindLocalRef:
		s = VecSite{Local: true, A: int32(bnd.slot)}
	case bindGlobal:
		s = VecSite{A: int32(bnd.gidx)}
	default:
		return 0, false
	}
	if off, ok := v.offsetOf(x.Index); ok {
		s.Off = off
		key := [3]int32{int32(bnd.kind), s.A, off}
		if si, seen := v.sites[key]; seen {
			return si, true
		}
		v.sites[key] = int32(len(v.d.Sites))
	} else if v.invariant(x.Index) {
		blk, err := v.c.miniBlock(x.Index)
		if err != nil || len(blk) == 0 {
			return 0, false
		}
		s.Index = blk
	} else {
		return 0, false
	}
	si := int32(len(v.d.Sites))
	v.d.Sites = append(v.d.Sites, s)
	v.siteInt = append(v.siteInt, elem.IsInteger())
	return si, true
}

// offsetOf matches a streamed subscript: i, i + c or i - c for an integer
// constant c (bounded so i + c cannot overflow the batch arithmetic).
func (v *colComp) offsetOf(e minic.Expr) (int32, bool) {
	switch x := stripParens(e).(type) {
	case *minic.Ident:
		return 0, x.Name == v.ivar
	case *minic.BinaryExpr:
		id, ok := stripParens(x.X).(*minic.Ident)
		if !ok || id.Name != v.ivar {
			return 0, false
		}
		lit, ok := x.Y.(*minic.IntLit)
		if !ok || lit.Value > 1<<30 {
			return 0, false
		}
		switch x.Op {
		case "+":
			return int32(lit.Value), true
		case "-":
			return -int32(lit.Value), true
		}
	}
	return 0, false
}

// invariant accepts a broadcast subscript: what pureBound accepts for a
// loop bound, naming no body temporary (those vary per iteration).
func (v *colComp) invariant(e minic.Expr) bool {
	if !v.c.pureBound(e, v.ivar) {
		return false
	}
	ok := true
	minic.Inspect(e, func(n minic.Node) bool {
		if id, isID := n.(*minic.Ident); isID {
			if _, temp := v.temps[id.Name]; temp {
				ok = false
			}
		}
		return ok
	})
	return ok
}

// view returns the register bound to a site's column window, emitting the
// bind on first use. The binding is a zero-copy alias into the backing
// array, so reads through it always observe prior cStores — the in-order
// per-lane semantics the scalar loop has. A broadcast site's register is
// an immediate filled once per batch.
func (v *colComp) view(si int32) int32 {
	if v.d.Sites[si].Index != nil {
		return v.immReg(vimSite, si)
	}
	if r, ok := v.views[si]; ok {
		return r
	}
	r := v.newReg()
	v.views[si] = r
	v.emit(cLoad, r, -1, -1, -1, si)
	return r
}

// stmt lowers one body statement, returning the scalar encoding's cost
// charge for it. Any statement shape the tier cannot reproduce exactly
// fails qualification.
func (v *colComp) stmt(s minic.Stmt) (cost, bool) {
	switch x := s.(type) {
	case *minic.DeclStmt:
		return v.declStmt(x)
	case *minic.AssignStmt:
		return v.assign(x)
	case *minic.IncDecStmt:
		return v.incDec(x)
	case *minic.ExprStmt:
		k, err := v.c.staticCost(x.X)
		if err != nil {
			return cost{}, false
		}
		if _, ok := v.expr(x.X); !ok {
			return cost{}, false
		}
		return k, true
	}
	return cost{}, false
}

func (v *colComp) declStmt(d *minic.DeclStmt) (cost, bool) {
	vd := d.Decl
	bt, ok := vd.Type.(*minic.Basic)
	if !ok || vd.Name == v.ivar {
		return cost{}, false
	}
	reg := v.newReg()
	if vd.Init == nil {
		// Scalar: OpZero, no charge.
		v.emit(cMov, reg, v.constImm(0), -1, -1, -1)
		v.temps[vd.Name] = colTemp{reg: reg, intTyped: bt.IsInteger()}
		return cost{}, true
	}
	k, err := v.c.staticCost(vd.Init)
	if err != nil {
		return cost{}, false
	}
	// Initializer compiles before the name binds, so `int t = t + 1`
	// reads the outer t — the scalar scoping.
	r, ok := v.expr(vd.Init)
	if !ok {
		return cost{}, false
	}
	if bt.IsInteger() {
		v.emit(cTrunc, reg, r, -1, -1, -1)
	} else {
		v.emit(cMov, reg, r, -1, -1, -1)
	}
	v.temps[vd.Name] = colTemp{reg: reg, intTyped: bt.IsInteger()}
	return k, true
}

func (v *colComp) assign(x *minic.AssignStmt) (cost, bool) {
	op := ""
	if x.Op != "=" {
		op = x.Op[:len(x.Op)-1]
	}
	switch lhs := stripParens(x.LHS).(type) {
	case *minic.Ident:
		// Only body-declared temporaries are assignable: writing an outer
		// scalar would invalidate the one-shot immediate broadcasts (and
		// reductions have cross-lane dependences the tier cannot honor).
		t, ok := v.temps[lhs.Name]
		if !ok {
			return cost{}, false
		}
		k, err := v.c.staticCost(x.RHS)
		if err != nil {
			return cost{}, false
		}
		r, ok := v.expr(x.RHS)
		if !ok {
			return cost{}, false
		}
		if op == "" {
			if t.intTyped {
				v.emit(cTrunc, t.reg, r, -1, -1, -1)
			} else {
				v.emit(cMov, t.reg, r, -1, -1, -1)
			}
			return cost{k.w + 1, k.b, k.irr}, true
		}
		kind, ok := v.compoundKind(op, t.intTyped, r)
		if !ok {
			return cost{}, false
		}
		v.emit(kind, t.reg, t.reg, r, -1, -1)
		if t.intTyped {
			v.emit(cTrunc, t.reg, t.reg, -1, -1, -1)
		}
		return cost{k.w + 1, k.b, k.irr}, true

	case *minic.IndexExpr:
		k, err := v.c.staticCost(x.RHS)
		if err != nil {
			return cost{}, false
		}
		// The destination costs what reading it would: subscript, one
		// flop, the element's bytes.
		lv, err := v.c.staticCost(lhs)
		if err != nil {
			return cost{}, false
		}
		if op == "" {
			// Plain store: the scalar encoding evaluates the RHS before it
			// touches the destination site, so the site registers (and,
			// at runtime, first-touches) after the RHS's sites.
			r, ok := v.expr(x.RHS)
			if !ok {
				return cost{}, false
			}
			si, ok := v.siteOf(lhs)
			if !ok {
				return cost{}, false
			}
			if v.siteInt[si] {
				s := v.newReg()
				v.emit(cTrunc, s, r, -1, -1, -1)
				r = s
			}
			v.emit(cStore, -1, r, -1, -1, si)
			return cost{k.w + lv.w + 1, k.b + lv.b, k.irr + lv.irr}, true
		}
		// Compound store: the scalar encoding reads the element first.
		si, ok := v.siteOf(lhs)
		if !ok {
			return cost{}, false
		}
		cur := v.view(si)
		r, ok := v.expr(x.RHS)
		if !ok {
			return cost{}, false
		}
		kind, ok := v.compoundKind(op, v.siteInt[si], r)
		if !ok {
			return cost{}, false
		}
		s := v.newReg()
		v.emit(kind, s, cur, r, -1, -1)
		if v.siteInt[si] {
			v.emit(cTrunc, s, s, -1, -1, -1)
		}
		v.emit(cStore, -1, s, -1, -1, si)
		return cost{k.w + lv.w + 1, k.b + 2*lv.b, k.irr + 2*lv.irr}, true
	}
	return cost{}, false
}

func (v *colComp) incDec(x *minic.IncDecStmt) (cost, bool) {
	delta := 1.0
	if x.Op == "--" {
		delta = -1
	}
	switch lhs := stripParens(x.X).(type) {
	case *minic.Ident:
		t, ok := v.temps[lhs.Name]
		if !ok {
			return cost{}, false
		}
		// Scalar: OpInc, no truncation.
		v.emit(cAdd, t.reg, t.reg, v.constImm(delta), -1, -1)
		return cost{1, 0, 0}, true
	case *minic.IndexExpr:
		lv, err := v.c.staticCost(lhs)
		if err != nil {
			return cost{}, false
		}
		si, ok := v.siteOf(lhs)
		if !ok {
			return cost{}, false
		}
		cur := v.view(si)
		s := v.newReg()
		// Scalar: load, add, store — no truncation even for int elements.
		v.emit(cAdd, s, cur, v.constImm(delta), -1, -1)
		v.emit(cStore, -1, s, -1, -1, si)
		return cost{lv.w + 1, 2 * lv.b, 2 * lv.irr}, true
	}
	return cost{}, false
}

// compoundKind maps a compound-assignment operator to its column op,
// using the LHS type for the / dialect like the scalar applyBinOp path.
// Integer division and modulus qualify only with a nonzero constant
// divisor: the scalar path can fault there, and a fault mid-batch would
// leave partial side effects the oracle never produced.
func (v *colComp) compoundKind(op string, intCtx bool, rhs int32) (int32, bool) {
	switch op {
	case "+":
		return cAdd, true
	case "-":
		return cSub, true
	case "*":
		return cMul, true
	case "/":
		if !intCtx {
			return cDivF, true
		}
		if val, ok := v.consts[rhs]; ok && val != 0 {
			return cDivI, true
		}
		return 0, false
	case "%":
		if val, ok := v.consts[rhs]; ok && int64(val) != 0 {
			return cMod, true
		}
		return 0, false
	case "<<":
		return cShl, true
	case ">>":
		return cShr, true
	case "==":
		return cEq, true
	case "!=":
		return cNe, true
	case "<":
		return cLt, true
	case "<=":
		return cLe, true
	case ">":
		return cGt, true
	case ">=":
		return cGe, true
	case "&&":
		return cAndE, true
	case "||":
		return cOrE, true
	}
	return 0, false
}

// expr lowers one expression to a register. Costs are not computed here —
// the statement level charges them through staticCost, which guarantees
// the charge equals the scalar encoding's.
func (v *colComp) expr(e minic.Expr) (int32, bool) {
	switch x := e.(type) {
	case *minic.ParenExpr:
		return v.expr(x.X)
	case *minic.IntLit:
		return v.constImm(float64(x.Value)), true
	case *minic.FloatLit:
		return v.constImm(x.Value), true
	case *minic.SizeofExpr:
		return v.constImm(float64(x.Of.Size())), true
	case *minic.Ident:
		if x.Name == v.ivar {
			return v.iotaReg(), true
		}
		if t, ok := v.temps[x.Name]; ok {
			return t.reg, true
		}
		bnd, ok := v.c.lookup(x.Name)
		if !ok || isRefType(bnd.typ) {
			return 0, false
		}
		switch bnd.kind {
		case bindLocal:
			return v.immReg(vimLocal, int32(bnd.slot)), true
		case bindGlobal:
			return v.immReg(vimGlobal, int32(bnd.gidx)), true
		}
		return 0, false
	case *minic.UnaryExpr:
		var kind int32
		switch x.Op {
		case "-":
			kind = cNeg
		case "!":
			kind = cNot
		default:
			return 0, false
		}
		r, ok := v.expr(x.X)
		if !ok {
			return 0, false
		}
		dst := v.newReg()
		v.emit(kind, dst, r, -1, -1, -1)
		return dst, true
	case *minic.IndexExpr:
		si, ok := v.siteOf(x)
		if !ok {
			return 0, false
		}
		return v.view(si), true
	case *minic.BinaryExpr:
		return v.binary(x)
	case *minic.CondExpr:
		c0, ok := v.expr(x.Cond)
		if !ok {
			return 0, false
		}
		v.lazy++
		t, ok1 := v.expr(x.Then)
		el, ok2 := v.expr(x.Else)
		v.lazy--
		if !ok1 || !ok2 {
			return 0, false
		}
		dst := v.newReg()
		v.emit(cSel, dst, c0, t, el, -1)
		return dst, true
	case *minic.CallExpr:
		return v.call(x)
	}
	return 0, false
}

func (v *colComp) binary(x *minic.BinaryExpr) (int32, bool) {
	if x.Op == "&&" || x.Op == "||" {
		a, ok := v.expr(x.X)
		if !ok {
			return 0, false
		}
		v.lazy++
		b, ok := v.expr(x.Y)
		v.lazy--
		if !ok {
			return 0, false
		}
		kind := cAndE
		if x.Op == "||" {
			kind = cOrE
		}
		dst := v.newReg()
		v.emit(kind, dst, a, b, -1, -1)
		return dst, true
	}
	intCtx := false
	if t, ok := x.Type().(*minic.Basic); ok && t.IsInteger() {
		intCtx = true
	}
	if x.Op == "%" || (x.Op == "/" && intCtx) {
		// Denominator first, mirroring the scalar fault order; the loop
		// only qualifies when the divisor is a nonzero constant, so no
		// fault is reachable inside a batch.
		b, ok := v.expr(x.Y)
		if !ok {
			return 0, false
		}
		bv, isConst := v.consts[b]
		if !isConst {
			return 0, false
		}
		var kind int32
		if x.Op == "%" {
			if int64(bv) == 0 {
				return 0, false
			}
			kind = cMod
		} else {
			if bv == 0 {
				return 0, false
			}
			kind = cDivI
		}
		a, ok := v.expr(x.X)
		if !ok {
			return 0, false
		}
		dst := v.newReg()
		v.emit(kind, dst, a, b, -1, -1)
		return dst, true
	}
	a, ok := v.expr(x.X)
	if !ok {
		return 0, false
	}
	b, ok := v.expr(x.Y)
	if !ok {
		return 0, false
	}
	var kind int32
	switch x.Op {
	case "+":
		kind = cAdd
	case "-":
		kind = cSub
	case "*":
		kind = cMul
	case "/":
		kind = cDivF
	case "<<":
		kind = cShl
	case ">>":
		kind = cShr
	case "==":
		kind = cEq
	case "!=":
		kind = cNe
	case "<":
		kind = cLt
	case "<=":
		kind = cLe
	case ">":
		kind = cGt
	case ">=":
		kind = cGe
	default:
		return 0, false
	}
	dst := v.newReg()
	v.emit(kind, dst, a, b, -1, -1)
	return dst, true
}

func (v *colComp) call(x *minic.CallExpr) (int32, bool) {
	if _, isBuiltin := minic.Builtins[x.Fun.Name]; !isBuiltin {
		return 0, false
	}
	bk, ok := builtinKind[x.Fun.Name]
	if !ok {
		return 0, false
	}
	ck := colBuiltin[bk]
	ar := builtinArity[bk]
	if len(x.Args) < ar {
		return 0, false
	}
	// Like the scalar encoding, only the first `arity` arguments are
	// evaluated (surplus ones are charged at the statement level through
	// staticCost, never executed).
	args := make([]int32, ar)
	for i := 0; i < ar; i++ {
		r, ok := v.expr(x.Args[i])
		if !ok {
			return 0, false
		}
		args[i] = r
	}
	dst := v.newReg()
	if ar == 1 {
		v.emit(ck, dst, args[0], -1, -1, -1)
	} else {
		v.emit(ck, dst, args[0], args[1], -1, -1)
	}
	return dst, true
}
