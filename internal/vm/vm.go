package vm

import (
	"strings"

	"cbi/internal/interp"
	"cbi/internal/lang"
)

// VM executes a compiled Module. It shares interp.State, so the heap
// model, traps, builtins and RNG streams are byte-identical to the
// tree-walking interpreter's.
type VM struct {
	mod    *Module
	obs    interp.Observer
	st     *interp.State
	frames []vframe
	stack  []Value
	// read is the SymReader passed with every ScalarAssign event, built
	// once so that an event allocates nothing; events fire in the top
	// frame, which it reads.
	read interp.SymReader
}

type vframe struct {
	fn        *Func
	locals    []Value
	pc        int
	line      int
	stackBase int
}

// New creates a VM for the module. obs may be nil.
func New(mod *Module, obs interp.Observer) *VM {
	vm := &VM{mod: mod, obs: obs, st: interp.NewState()}
	if obs != nil {
		vm.read = vm.readSym
	}
	return vm
}

// SetLimits overrides resource limits; zero fields keep defaults.
func (vm *VM) SetLimits(l interp.Limits) {
	if l.Steps > 0 {
		vm.st.Limits.Steps = l.Steps
	}
	if l.Frames > 0 {
		vm.st.Limits.Frames = l.Frames
	}
	if l.HeapSlots > 0 {
		vm.st.Limits.HeapSlots = l.HeapSlots
	}
}

// SetMemModel overrides the heap layout model.
func (vm *VM) SetMemModel(m interp.MemModel) { vm.st.Mem = m }

// Run executes one run of the compiled program.
func (vm *VM) Run(input interp.Input) (result *interp.Outcome) {
	vm.st.Reset(vm.mod.Prog, input)
	vm.frames = vm.frames[:0]
	vm.stack = vm.stack[:0]

	defer func() {
		if r := recover(); r != nil {
			vm.st.RecoverTrap(r, vm.captureStack)
			vm.frames = vm.frames[:0]
			result = vm.st.Outcome()
		}
	}()

	ret := vm.exec(vm.mod.Main, nil)
	out := vm.st.Outcome()
	out.ExitCode = ret.Int
	out.Steps = vm.st.Steps()
	return out
}

func (vm *VM) captureStack() []interp.StackEntry {
	out := make([]interp.StackEntry, 0, len(vm.frames))
	for i := len(vm.frames) - 1; i >= 0; i-- {
		f := &vm.frames[i]
		out = append(out, interp.StackEntry{Func: f.fn.Name, Line: f.line})
	}
	return out
}

func (vm *VM) push(v Value) { vm.stack = append(vm.stack, v) }

func (vm *VM) pop() Value {
	v := vm.stack[len(vm.stack)-1]
	vm.stack = vm.stack[:len(vm.stack)-1]
	return v
}

func (vm *VM) top() Value { return vm.stack[len(vm.stack)-1] }

func (vm *VM) pushFrame(fnIdx int, args []Value) {
	if len(vm.frames) >= vm.st.Limits.Frames {
		vm.st.Trap(interp.TrapStackOverflow, "call depth exceeds %d", vm.st.Limits.Frames)
	}
	fn := vm.mod.Funcs[fnIdx]
	locals := make([]Value, fn.NLocals)
	copy(locals, args)
	for i := len(args); i < fn.NLocals; i++ {
		locals[i] = IntVal(0)
	}
	vm.frames = append(vm.frames, vframe{
		fn:        fn,
		locals:    locals,
		line:      fn.Line,
		stackBase: len(vm.stack),
	})
}

// readSym reads int variables of the current frame/globals for the
// scalar-pairs observer.
func (vm *VM) readSym(sym *lang.Symbol) (int64, bool) {
	var v Value
	if sym.Kind == lang.SymGlobal {
		v = vm.st.Globals[sym.Slot]
	} else {
		v = vm.frames[len(vm.frames)-1].locals[sym.Slot]
	}
	if v.Kind != KInt {
		return 0, false
	}
	return v.Int, true
}

func (vm *VM) wantInt(v Value, what string) int64 {
	if v.Kind != KInt {
		vm.st.Trap(interp.TrapTypeConfusion, "%s", what)
	}
	return v.Int
}

// exec runs the function at fnIdx to completion and returns its result.
func (vm *VM) exec(fnIdx int, args []Value) Value {
	vm.pushFrame(fnIdx, args)
	baseDepth := len(vm.frames)

	for {
		f := &vm.frames[len(vm.frames)-1]
		in := f.fn.Code[f.pc]
		f.pc++
		if in.Op != opLine {
			vm.st.Step()
		}

		switch in.Op {
		case opNop:
		case opLine:
			f.line = int(in.A)
		case opConst:
			vm.push(vm.mod.Consts[in.A])
		case opPop:
			vm.pop()
		case opDup:
			vm.push(vm.top())
		case opLoadLocal:
			vm.push(f.locals[in.A])
		case opStoreLocal:
			f.locals[in.A] = vm.pop()
		case opLoadGlobal:
			vm.push(vm.st.Globals[in.A])
		case opStoreGlobal:
			vm.st.Globals[in.A] = vm.pop()

		case opAdd:
			r, l := vm.pop(), vm.pop()
			if l.Kind == KStr && r.Kind == KStr {
				vm.push(StrVal(l.Str + r.Str))
				break
			}
			if l.Kind != KInt || r.Kind != KInt {
				vm.st.Trap(interp.TrapTypeConfusion, "arithmetic on %s and %s", l, r)
			}
			vm.push(IntVal(l.Int + r.Int))
		case opSub, opMul, opDiv, opMod:
			r, l := vm.pop(), vm.pop()
			if l.Kind != KInt || r.Kind != KInt {
				vm.st.Trap(interp.TrapTypeConfusion, "arithmetic on %s and %s", l, r)
			}
			switch in.Op {
			case opSub:
				vm.push(IntVal(l.Int - r.Int))
			case opMul:
				vm.push(IntVal(l.Int * r.Int))
			case opDiv:
				if r.Int == 0 {
					vm.st.Trap(interp.TrapDivByZero, "division by zero")
				}
				vm.push(IntVal(interp.DivWrap(l.Int, r.Int)))
			case opMod:
				if r.Int == 0 {
					vm.st.Trap(interp.TrapDivByZero, "modulo by zero")
				}
				vm.push(IntVal(interp.ModWrap(l.Int, r.Int)))
			}
		case opEq:
			r, l := vm.pop(), vm.pop()
			eq, ok := interp.ValuesEqual(l, r)
			if !ok {
				vm.st.Trap(interp.TrapTypeConfusion, "comparing %s with %s", l, r)
			}
			if in.B == 1 {
				eq = !eq
			}
			vm.push(boolVal(eq))
		case opLt, opLe, opGt, opGe:
			r, l := vm.pop(), vm.pop()
			if l.Kind == KStr && r.Kind == KStr {
				vm.push(boolVal(strOrder(in.Op, l.Str, r.Str)))
				break
			}
			if l.Kind != KInt || r.Kind != KInt {
				vm.st.Trap(interp.TrapTypeConfusion, "ordering %s with %s", l, r)
			}
			vm.push(boolVal(intOrder(in.Op, l.Int, r.Int)))
		case opNeg:
			v := vm.wantInt(vm.pop(), "operand of - must be an integer")
			vm.push(IntVal(-v))
		case opNot:
			v := vm.wantInt(vm.pop(), "operand of ! must be an integer")
			vm.push(boolVal(v == 0))

		case opJump:
			f.pc = int(in.A)
		case opJumpIfZero:
			v := vm.wantInt(vm.pop(), "condition is not an integer")
			if v == 0 {
				f.pc = int(in.A)
			}
		case opJumpIfNZero:
			v := vm.wantInt(vm.pop(), "condition is not an integer")
			if v != 0 {
				f.pc = int(in.A)
			}

		case opNewArray:
			n := vm.wantInt(vm.pop(), "allocation count is not an integer")
			vm.push(vm.st.Allocate(int(n), vm.mod.ElemTypes[in.A]))
		case opNewStruct:
			vm.push(vm.st.Allocate(1, vm.mod.ElemTypes[in.A]))
		case opIndexAddr:
			idx := vm.wantInt(vm.pop(), "expected integer index")
			base := vm.pop()
			if base.Kind != KPtr {
				vm.st.Trap(interp.TrapTypeConfusion, "indexing a non-pointer value")
			}
			if vm.obs != nil {
				vm.obs.PtrDeref(lang.NodeID(in.C), base.IsNull())
			}
			if base.IsNull() {
				vm.st.Trap(interp.TrapNullDeref, "indexing null pointer")
			}
			vm.push(interp.PtrVal(base.Block, base.Off+int(idx)*int(in.A)))
		case opFieldAddr:
			base := vm.pop()
			if base.Kind != KPtr {
				vm.st.Trap(interp.TrapTypeConfusion, "-> on a non-pointer value")
			}
			if vm.obs != nil {
				vm.obs.PtrDeref(lang.NodeID(in.C), base.IsNull())
			}
			if base.IsNull() {
				vm.st.Trap(interp.TrapNullDeref, "-> on null pointer")
			}
			vm.push(interp.PtrVal(base.Block, base.Off+int(in.A)))
		case opAddrField:
			addr := vm.pop()
			vm.push(interp.PtrVal(addr.Block, addr.Off+int(in.A)))
		case opLoadAddr:
			addr := vm.pop()
			v, ok := vm.st.HeapLoad(addr.Block, addr.Off)
			if !ok {
				vm.st.Trap(interp.TrapOutOfBounds, "read from unmapped memory")
			}
			vm.push(v)
		case opStoreAddr:
			v := vm.pop()
			addr := vm.pop()
			if !vm.st.HeapStore(addr.Block, addr.Off, v) {
				vm.st.Trap(interp.TrapOutOfBounds, "write to unmapped memory")
			}
		case opStoreHeapObs:
			v := vm.pop()
			addr := vm.pop()
			old, oldMapped := vm.st.HeapLoad(addr.Block, addr.Off)
			if !vm.st.HeapStore(addr.Block, addr.Off, v) {
				vm.st.Trap(interp.TrapOutOfBounds, "write to unmapped memory")
			}
			if vm.obs != nil {
				switch {
				case in.B == 1 && v.Kind == KInt:
					vm.obs.ScalarAssign(lang.NodeID(in.A), v.Int, old.Int, oldMapped && old.Kind == KInt, vm.read)
				case in.B == 2 && v.Kind == KPtr:
					vm.obs.PtrAssign(lang.NodeID(in.A), v.IsNull())
				}
			}

		case opCall:
			n := int(in.B)
			callArgs := make([]Value, n)
			copy(callArgs, vm.stack[len(vm.stack)-n:])
			vm.stack = vm.stack[:len(vm.stack)-n]
			vm.pushFrame(int(in.A), callArgs)
		case opCallBuiltin:
			n := int(in.B)
			callArgs := make([]Value, n)
			copy(callArgs, vm.stack[len(vm.stack)-n:])
			vm.stack = vm.stack[:len(vm.stack)-n]
			vm.push(vm.st.CallBuiltin(vm.mod.Builtins[in.A], callArgs))
		case opReturn:
			ret := vm.pop()
			vm.stack = vm.stack[:f.stackBase]
			vm.frames = vm.frames[:len(vm.frames)-1]
			if len(vm.frames) < baseDepth {
				return ret
			}
			vm.push(ret)
		case opReturnVoid:
			vm.stack = vm.stack[:f.stackBase]
			vm.frames = vm.frames[:len(vm.frames)-1]
			if len(vm.frames) < baseDepth {
				return Value{}
			}
			vm.push(Value{})

		case opObsBranch:
			v := vm.wantInt(vm.top(), "condition is not an integer")
			if vm.obs != nil {
				vm.obs.Branch(lang.NodeID(in.A), v != 0)
			}
		case opObsRet:
			if vm.obs != nil && vm.top().Kind == KInt {
				vm.obs.IntReturn(lang.NodeID(in.A), vm.top().Int)
			}
		case opObsPtrLocal:
			v := vm.pop()
			if in.B == 1 {
				vm.st.Globals[in.A] = v
			} else {
				f.locals[in.A] = v
			}
			if vm.obs != nil && v.Kind == KPtr {
				vm.obs.PtrAssign(lang.NodeID(in.C), v.IsNull())
			}
		case opObsAssignLocal:
			v := vm.pop()
			var old Value
			if in.B == 1 {
				old = vm.st.Globals[in.A]
				vm.st.Globals[in.A] = v
			} else {
				old = f.locals[in.A]
				f.locals[in.A] = v
			}
			if vm.obs != nil && v.Kind == KInt {
				vm.obs.ScalarAssign(lang.NodeID(in.C), v.Int, old.Int, old.Kind == KInt, vm.read)
			}

		default:
			vm.st.Trap(interp.TrapTypeConfusion, "internal: unknown opcode %s", in.Op)
		}
	}
}

func boolVal(b bool) Value {
	if b {
		return IntVal(1)
	}
	return IntVal(0)
}

func intOrder(op Op, l, r int64) bool {
	switch op {
	case opLt:
		return l < r
	case opLe:
		return l <= r
	case opGt:
		return l > r
	default:
		return l >= r
	}
}

func strOrder(op Op, l, r string) bool {
	switch op {
	case opLt:
		return l < r
	case opLe:
		return l <= r
	case opGt:
		return l > r
	default:
		return l >= r
	}
}

// Disasm renders a compiled function for debugging.
func Disasm(fn *Func) string {
	var sb strings.Builder
	for i, in := range fn.Code {
		sb.WriteString(padInt(i, 4))
		sb.WriteByte(' ')
		sb.WriteString(in.Op.String())
		sb.WriteByte(' ')
		sb.WriteString(padInt(int(in.A), 0))
		if in.B != 0 || in.C != 0 {
			sb.WriteByte(' ')
			sb.WriteString(padInt(int(in.B), 0))
			sb.WriteByte(' ')
			sb.WriteString(padInt(int(in.C), 0))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

func padInt(v, width int) string {
	s := ""
	neg := v < 0
	if neg {
		v = -v
	}
	if v == 0 {
		s = "0"
	}
	for v > 0 {
		s = string(rune('0'+v%10)) + s
		v /= 10
	}
	if neg {
		s = "-" + s
	}
	for len(s) < width {
		s = " " + s
	}
	return s
}
