package interp

import "cbi/internal/lang"

// Input is the test input for one run: an argument vector, a string
// argument vector, an integer input stream for read(), and the seed that
// drives both rand() and the randomized heap layout.
type Input struct {
	Args   []int64
	SArgs  []string
	Stream []int64
	Seed   int64
}

// SymReader lets an Observer read the current value of an int-typed
// variable during a scalar-assignment event. ok is false if the variable
// currently holds a non-integer (e.g. corrupted) value. A reader is
// valid only for the duration of the event it was passed to.
type SymReader func(sym *lang.Symbol) (val int64, ok bool)

// Observer receives instrumentation events. The interpreter calls it
// at every event point and leaves sampling to the observer: the
// instrument package's runtime decides each event, or an assignment's
// whole scalar-pairs site group, with one sampler countdown check, so
// an unsampled event costs that check and allocates nothing. A nil
// Observer disables instrumentation entirely.
type Observer interface {
	// Branch fires when a conditional is evaluated: if/while/for
	// conditions and the implicit conditionals of && and ||.
	Branch(id lang.NodeID, cond bool)
	// IntReturn fires when a call to an int-returning function (user or
	// builtin) returns.
	IntReturn(id lang.NodeID, val int64)
	// ScalarAssign fires when an int value is stored by an assignment
	// or initialized declaration. oldOK is false when the target
	// location did not previously hold an int. read gives access to
	// in-scope variables for the scalar-pairs scheme.
	ScalarAssign(id lang.NodeID, newVal, oldVal int64, oldOK bool, read SymReader)
	// PtrAssign fires when a pointer value is stored by an assignment
	// or initialized declaration of pointer-typed target — the hook
	// for the nullness scheme, the heap-predicate extension the paper
	// flags as future work (§2, §4.2.4).
	PtrAssign(id lang.NodeID, isNull bool)
	// PtrDeref fires when a pointer is about to be dereferenced by
	// p[i] or p->f, before the null check — so a null dereference is
	// observed in the feedback report of the run it crashes.
	PtrDeref(id lang.NodeID, isNull bool)
}

// Limits bound a run's resources.
type Limits struct {
	// Steps is the maximum number of interpreter steps (0 = default).
	Steps int64
	// Frames is the maximum call depth (0 = default).
	Frames int
	// HeapSlots is the maximum number of live heap slots (0 = default).
	HeapSlots int
}

// DefaultLimits are used where Limits fields are zero.
var DefaultLimits = Limits{Steps: 4_000_000, Frames: 256, HeapSlots: 1 << 22}

// MemModel configures the randomized heap layout.
type MemModel struct {
	// AdjacentProb is the probability that a fresh allocation is laid
	// out directly after the previous one, making small overruns
	// corrupt it silently rather than trap.
	AdjacentProb float64
}

// DefaultMemModel matches the behaviour described in DESIGN.md.
var DefaultMemModel = MemModel{AdjacentProb: 0.8}

// Interp executes a resolved MiniC program on one input.
type Interp struct {
	prog  *lang.Program
	obs   Observer
	st    *State
	stack []*frame
	// read is the SymReader passed with every ScalarAssign event, built
	// once so that an event allocates nothing; events fire in the top
	// frame, which it reads.
	read SymReader
}

type frame struct {
	fn     *lang.FuncDecl
	locals []Value
	// line tracks the statement currently executing, for stack traces.
	line int
	ret  Value
}

// control is the statement-level control-flow result.
type control int

const (
	ctlNone control = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

// trapPanic carries a trap out of the recursive evaluator.
type trapPanic struct {
	kind TrapKind
	msg  string
}

// New creates an interpreter for prog. The program must have been
// successfully resolved. obs may be nil.
func New(prog *lang.Program, obs Observer) *Interp {
	in := &Interp{prog: prog, obs: obs, st: NewState()}
	if obs != nil {
		in.read = in.readSym
	}
	return in
}

// SetLimits overrides resource limits; zero fields keep defaults.
func (in *Interp) SetLimits(l Limits) {
	if l.Steps > 0 {
		in.st.Limits.Steps = l.Steps
	}
	if l.Frames > 0 {
		in.st.Limits.Frames = l.Frames
	}
	if l.HeapSlots > 0 {
		in.st.Limits.HeapSlots = l.HeapSlots
	}
}

// SetMemModel overrides the heap layout model.
func (in *Interp) SetMemModel(m MemModel) { in.st.Mem = m }

// Run executes the program's main function on the given input and
// returns the run outcome. Run may be called repeatedly; each call is an
// independent run.
func Run(prog *lang.Program, input Input, obs Observer) *Outcome {
	return New(prog, obs).Run(input)
}

// Run executes one run.
func (in *Interp) Run(input Input) (result *Outcome) {
	in.st.Reset(in.prog, input)
	in.stack = in.stack[:0]

	defer func() {
		if r := recover(); r != nil {
			in.st.RecoverTrap(r, in.captureStack)
			in.stack = in.stack[:0]
			result = in.st.Outcome()
		}
	}()

	main := in.prog.FuncByName["main"]
	ret := in.callFunc(main, nil, 0)
	out := in.st.Outcome()
	out.ExitCode = ret.Int
	out.Steps = in.st.Steps()
	return out
}

func zeroOf(t lang.Type) Value {
	switch {
	case t.Equal(lang.String):
		return StrVal("")
	case lang.IsPointer(t):
		return Null
	default:
		return IntVal(0)
	}
}

func (in *Interp) trap(kind TrapKind, format string, args ...any) {
	in.st.Trap(kind, format, args...)
}

func (in *Interp) captureStack() []StackEntry {
	out := make([]StackEntry, 0, len(in.stack))
	for i := len(in.stack) - 1; i >= 0; i-- {
		f := in.stack[i]
		out = append(out, StackEntry{Func: f.fn.Name, Line: f.line})
	}
	return out
}

func (in *Interp) step() { in.st.Step() }

func (in *Interp) callFunc(fn *lang.FuncDecl, args []Value, callLine int) Value {
	if len(in.stack) >= in.st.Limits.Frames {
		in.trap(TrapStackOverflow, "call depth exceeds %d", in.st.Limits.Frames)
	}
	f := &frame{fn: fn, locals: make([]Value, fn.Locals), line: fn.Pos().Line}
	for i := range fn.Params {
		f.locals[fn.Params[i].Sym.Slot] = args[i]
	}
	for i := len(fn.Params); i < fn.Locals; i++ {
		f.locals[i] = IntVal(0)
	}
	in.stack = append(in.stack, f)
	ctl := in.execBlock(f, fn.Body)
	in.stack = in.stack[:len(in.stack)-1]
	if ctl == ctlReturn {
		return f.ret
	}
	// Falling off the end returns the zero value (C-ish leniency; the
	// resolver does not do flow analysis).
	if fn.Ret.Equal(lang.Void) {
		return Value{}
	}
	return zeroOf(fn.Ret)
}

func (in *Interp) execBlock(f *frame, b *lang.Block) control {
	for _, s := range b.Stmts {
		if ctl := in.execStmt(f, s); ctl != ctlNone {
			return ctl
		}
	}
	return ctlNone
}

func (in *Interp) execStmt(f *frame, s lang.Stmt) control {
	in.step()
	f.line = s.Pos().Line
	switch st := s.(type) {
	case *lang.VarDecl:
		var v Value
		if st.Init != nil {
			v = in.evalExpr(f, st.Init)
		} else {
			v = zeroOf(st.DeclType)
		}
		old := f.locals[st.Sym.Slot]
		f.locals[st.Sym.Slot] = v
		if in.obs != nil && st.Init != nil {
			if v.Kind == KInt && lang.IsScalar(st.DeclType) {
				in.obs.ScalarAssign(st.ID(), v.Int, old.Int, old.Kind == KInt, in.read)
			} else if v.Kind == KPtr && lang.IsPointer(st.DeclType) {
				in.obs.PtrAssign(st.ID(), v.IsNull())
			}
		}
		return ctlNone
	case *lang.Assign:
		in.execAssign(f, st)
		return ctlNone
	case *lang.If:
		c := in.evalCond(f, st.Cond)
		if c {
			return in.execBlock(f, st.Then)
		}
		if st.Else != nil {
			return in.execStmt(f, st.Else)
		}
		return ctlNone
	case *lang.While:
		for {
			if !in.evalCond(f, st.Cond) {
				return ctlNone
			}
			switch in.execBlock(f, st.Body) {
			case ctlBreak:
				return ctlNone
			case ctlReturn:
				return ctlReturn
			}
		}
	case *lang.For:
		if st.Init != nil {
			if ctl := in.execStmt(f, st.Init); ctl != ctlNone {
				return ctl
			}
		}
		for {
			if st.Cond != nil && !in.evalCond(f, st.Cond) {
				return ctlNone
			}
			switch in.execBlock(f, st.Body) {
			case ctlBreak:
				return ctlNone
			case ctlReturn:
				return ctlReturn
			}
			if st.Post != nil {
				if ctl := in.execStmt(f, st.Post); ctl != ctlNone {
					return ctl
				}
			}
		}
	case *lang.Return:
		if st.Value != nil {
			f.ret = in.evalExpr(f, st.Value)
		}
		return ctlReturn
	case *lang.Break:
		return ctlBreak
	case *lang.Continue:
		return ctlContinue
	case *lang.ExprStmt:
		in.evalExpr(f, st.E)
		return ctlNone
	case *lang.Block:
		return in.execBlock(f, st)
	}
	in.trap(TrapTypeConfusion, "internal: unknown statement %T", s)
	return ctlNone
}

// location is an lvalue: either a local/global slot or a heap cell.
type location struct {
	heapBlock int // 0 => variable
	heapSlot  int
	slots     []Value // frame or globals backing array (variable case)
	idx       int
}

func (in *Interp) loadLoc(loc location) (Value, bool) {
	if loc.heapBlock != 0 {
		return in.st.HeapLoad(loc.heapBlock, loc.heapSlot)
	}
	return loc.slots[loc.idx], true
}

func (in *Interp) storeLoc(loc location, v Value) bool {
	if loc.heapBlock != 0 {
		return in.st.HeapStore(loc.heapBlock, loc.heapSlot, v)
	}
	loc.slots[loc.idx] = v
	return true
}

// evalLValue computes the location denoted by an lvalue expression.
func (in *Interp) evalLValue(f *frame, e lang.Expr) location {
	switch ex := e.(type) {
	case *lang.VarRef:
		sym := ex.Sym
		if sym.Kind == lang.SymGlobal {
			return location{slots: in.st.Globals, idx: sym.Slot}
		}
		return location{slots: f.locals, idx: sym.Slot}
	case *lang.Index:
		base := in.evalExpr(f, ex.Base)
		idx := in.evalInt(f, ex.Idx)
		if base.Kind != KPtr {
			in.trap(TrapTypeConfusion, "indexing a non-pointer value")
		}
		if in.obs != nil {
			in.obs.PtrDeref(ex.ID(), base.IsNull())
		}
		if base.IsNull() {
			in.trap(TrapNullDeref, "indexing null pointer")
		}
		elemSize := lang.SizeOf(elemTypeOf(ex.Base))
		slot := base.Off + int(idx)*elemSize
		return location{heapBlock: base.Block, heapSlot: slot}
	case *lang.Field:
		if ex.Arrow {
			base := in.evalExpr(f, ex.Base)
			if base.Kind != KPtr {
				in.trap(TrapTypeConfusion, "-> on a non-pointer value")
			}
			if in.obs != nil {
				in.obs.PtrDeref(ex.ID(), base.IsNull())
			}
			if base.IsNull() {
				in.trap(TrapNullDeref, "-> on null pointer")
			}
			return location{heapBlock: base.Block, heapSlot: base.Off + ex.FieldIndex}
		}
		loc := in.evalLValue(f, ex.Base)
		if loc.heapBlock == 0 {
			in.trap(TrapTypeConfusion, "struct value outside the heap")
		}
		loc.heapSlot += ex.FieldIndex
		return loc
	}
	in.trap(TrapTypeConfusion, "internal: not an lvalue: %T", e)
	return location{}
}

// elemTypeOf returns the pointee type of a pointer-typed expression.
func elemTypeOf(base lang.Expr) lang.Type {
	if pt, ok := base.Type().(*lang.PointerType); ok {
		return pt.Elem
	}
	return lang.Int
}

func (in *Interp) execAssign(f *frame, st *lang.Assign) {
	loc := in.evalLValue(f, st.LHS)
	v := in.evalExpr(f, st.Value)
	old, oldMapped := in.loadLoc(loc)
	if !in.storeLoc(loc, v) {
		in.trap(TrapOutOfBounds, "write to unmapped memory")
	}
	if in.obs != nil {
		if v.Kind == KInt && lang.IsScalar(st.LHS.Type()) {
			in.obs.ScalarAssign(st.ID(), v.Int, old.Int, oldMapped && old.Kind == KInt, in.read)
		} else if v.Kind == KPtr && lang.IsPointer(st.LHS.Type()) {
			in.obs.PtrAssign(st.ID(), v.IsNull())
		}
	}
}

// readSym reads int variables of the current frame/globals for the
// scalar-pairs observer.
func (in *Interp) readSym(sym *lang.Symbol) (int64, bool) {
	var v Value
	if sym.Kind == lang.SymGlobal {
		v = in.st.Globals[sym.Slot]
	} else {
		v = in.stack[len(in.stack)-1].locals[sym.Slot]
	}
	if v.Kind != KInt {
		return 0, false
	}
	return v.Int, true
}

func (in *Interp) evalCond(f *frame, e lang.Expr) bool {
	v := in.evalExpr(f, e)
	if v.Kind != KInt {
		in.trap(TrapTypeConfusion, "condition is not an integer")
	}
	c := v.Int != 0
	if in.obs != nil {
		in.obs.Branch(e.ID(), c)
	}
	return c
}

func (in *Interp) evalInt(f *frame, e lang.Expr) int64 {
	v := in.evalExpr(f, e)
	if v.Kind != KInt {
		in.trap(TrapTypeConfusion, "expected integer, found %s", v)
	}
	return v.Int
}

func (in *Interp) evalExpr(f *frame, e lang.Expr) Value {
	in.step()
	switch ex := e.(type) {
	case *lang.IntLit:
		return IntVal(ex.Value)
	case *lang.StrLit:
		return StrVal(ex.Value)
	case *lang.NullLit:
		return Null
	case *lang.VarRef:
		if ex.Sym.Kind == lang.SymGlobal {
			return in.st.Globals[ex.Sym.Slot]
		}
		return f.locals[ex.Sym.Slot]
	case *lang.Binary:
		return in.evalBinary(f, ex)
	case *lang.Unary:
		v := in.evalInt(f, ex.E)
		if ex.Op == lang.OpNeg {
			return IntVal(-v)
		}
		if v == 0 {
			return IntVal(1)
		}
		return IntVal(0)
	case *lang.Call:
		return in.evalCall(f, ex)
	case *lang.Index, *lang.Field:
		loc := in.evalLValue(f, e)
		v, ok := in.loadLoc(loc)
		if !ok {
			in.trap(TrapOutOfBounds, "read from unmapped memory")
		}
		return v
	case *lang.NewArray:
		n := in.evalInt(f, ex.Count)
		return in.allocate(int(n), ex.Elem)
	case *lang.NewStruct:
		return in.allocate(1, ex.Struct)
	}
	in.trap(TrapTypeConfusion, "internal: unknown expression %T", e)
	return Value{}
}

func (in *Interp) allocate(count int, elem lang.Type) Value {
	return in.st.Allocate(count, elem)
}

func (in *Interp) evalBinary(f *frame, b *lang.Binary) Value {
	switch b.Op {
	case lang.OpAnd:
		l := in.evalInt(f, b.L)
		// The right operand is guarded by an implicit conditional on
		// the left value: a branch site. It is keyed by the left
		// operand's node so it never collides with a Branch event for
		// the enclosing statement condition (which is keyed by the
		// condition root — possibly this && node itself).
		if in.obs != nil {
			in.obs.Branch(b.L.ID(), l != 0)
		}
		if l == 0 {
			return IntVal(0)
		}
		r := in.evalInt(f, b.R)
		return boolVal(r != 0)
	case lang.OpOr:
		l := in.evalInt(f, b.L)
		if in.obs != nil {
			in.obs.Branch(b.L.ID(), l != 0)
		}
		if l != 0 {
			return IntVal(1)
		}
		r := in.evalInt(f, b.R)
		return boolVal(r != 0)
	}

	l := in.evalExpr(f, b.L)
	r := in.evalExpr(f, b.R)

	switch b.Op {
	case lang.OpEq, lang.OpNe:
		eq, ok := valuesEqual(l, r)
		if !ok {
			in.trap(TrapTypeConfusion, "comparing %s with %s", l, r)
		}
		if b.Op == lang.OpNe {
			eq = !eq
		}
		return boolVal(eq)
	case lang.OpLt, lang.OpLe, lang.OpGt, lang.OpGe:
		if l.Kind == KStr && r.Kind == KStr {
			return boolVal(strOrder(b.Op, l.Str, r.Str))
		}
		if l.Kind != KInt || r.Kind != KInt {
			in.trap(TrapTypeConfusion, "ordering %s with %s", l, r)
		}
		return boolVal(intOrder(b.Op, l.Int, r.Int))
	case lang.OpAdd:
		if l.Kind == KStr && r.Kind == KStr {
			return StrVal(l.Str + r.Str)
		}
	}

	if l.Kind != KInt || r.Kind != KInt {
		in.trap(TrapTypeConfusion, "arithmetic on %s and %s", l, r)
	}
	switch b.Op {
	case lang.OpAdd:
		return IntVal(l.Int + r.Int)
	case lang.OpSub:
		return IntVal(l.Int - r.Int)
	case lang.OpMul:
		return IntVal(l.Int * r.Int)
	case lang.OpDiv:
		if r.Int == 0 {
			in.trap(TrapDivByZero, "division by zero")
		}
		return IntVal(DivWrap(l.Int, r.Int))
	case lang.OpMod:
		if r.Int == 0 {
			in.trap(TrapDivByZero, "modulo by zero")
		}
		return IntVal(ModWrap(l.Int, r.Int))
	}
	in.trap(TrapTypeConfusion, "internal: unknown operator %s", b.Op)
	return Value{}
}

func boolVal(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}

// DivWrap is MiniC's integer division: Go's, except that
// MinInt64 / -1 wraps to MinInt64 instead of panicking (two's
// complement overflow, like C on most hardware).
func DivWrap(l, r int64) int64 {
	if r == -1 {
		return -l // wraps for MinInt64
	}
	return l / r
}

// ModWrap is MiniC's integer modulo; MinInt64 % -1 is defined as 0.
func ModWrap(l, r int64) int64 {
	if r == -1 {
		return 0
	}
	return l % r
}

// ValuesEqual implements MiniC's == on two runtime values; ok is false
// when the kinds are incomparable (type confusion). Shared with the
// bytecode VM.
func ValuesEqual(l, r Value) (eq, ok bool) { return valuesEqual(l, r) }

func valuesEqual(l, r Value) (eq, ok bool) {
	switch {
	case l.Kind == KInt && r.Kind == KInt:
		return l.Int == r.Int, true
	case l.Kind == KStr && r.Kind == KStr:
		return l.Str == r.Str, true
	case l.Kind == KPtr && r.Kind == KPtr:
		return l.Block == r.Block && (l.Block == 0 || l.Off == r.Off), true
	}
	return false, false
}

func intOrder(op lang.BinOp, l, r int64) bool {
	switch op {
	case lang.OpLt:
		return l < r
	case lang.OpLe:
		return l <= r
	case lang.OpGt:
		return l > r
	default:
		return l >= r
	}
}

func strOrder(op lang.BinOp, l, r string) bool {
	switch op {
	case lang.OpLt:
		return l < r
	case lang.OpLe:
		return l <= r
	case lang.OpGt:
		return l > r
	default:
		return l >= r
	}
}

func (in *Interp) evalCall(f *frame, c *lang.Call) Value {
	args := make([]Value, len(c.Args))
	for i, a := range c.Args {
		args[i] = in.evalExpr(f, a)
	}
	var ret Value
	if c.Builtin != nil {
		ret = in.callBuiltin(f, c, args)
	} else {
		ret = in.callFunc(c.Fn, args, c.Pos().Line)
	}
	if in.obs != nil && ret.Kind == KInt && c.Type().Equal(lang.Int) {
		in.obs.IntReturn(c.ID(), ret.Int)
	}
	return ret
}
