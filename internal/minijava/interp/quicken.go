package interp

import (
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/bytecode"
)

// Runtime quickening support. A shared Program is immutable once compiled; the
// VM patches opcodes only in warmState.code — this instance's private copy —
// so concurrent interpreters over one Program never write shared memory. The
// copy is positionally identical to the finalized stream (patches swap
// opcodes in place), so jump offsets, block tables and the disassembler's
// annotations carry over unchanged.

// vmIC is one inline-cache slot, indexed by a quickened instruction's C
// operand. A site only ever uses the fields its quick form reads:
//
//	OpQCallSelf     class (guard), m, cf, static
//	OpQCallVirtual  class (guard), m, cf
//	OpQCallStatic   cls (guard), class, m, cf
//	OpQGetField     class (guard), ix
//	OpQGetStatic    cls (guard), cell
//	OpQGetConst     cls (guard), v
//	OpQPushV        v (invariant, no guard)
type vmIC struct {
	class  *classInfo
	cls    string
	m      *ast.Method
	cf     *compiledFn
	cell   *staticCell // this instance's static storage
	v      Value
	ix     int32
	static bool
}

// warmState is one function's per-instance execution state: the private code
// copy quickening patches and the inline-cache table it indexes.
type warmState struct {
	code []bytecode.Instr
	ics  []vmIC
}

// warmFor returns this instance's warm copy of cf, creating it on first
// invocation.
func (in *Interp) warmFor(cf *compiledFn) *warmState {
	if in.warm == nil {
		in.warm = make([]warmState, len(in.prog.funcs))
	}
	w := &in.warm[cf.ix]
	if w.code == nil {
		w.code = append([]bytecode.Instr(nil), cf.fn.Code...)
		if cf.fn.NICs > 0 {
			w.ics = make([]vmIC, cf.fn.NICs)
		}
	}
	return w
}

// quickenCall inspects a generic OpCall's observed shape and, when the site
// is specializable, fills its inline cache and patches the opcode, reporting
// whether the caller should re-dispatch. Runs at most a handful of times per
// site and charges nothing, so it is kept out of the dispatch loop to keep
// execVM under the compiler's "big function" inlining threshold (past which
// the meter calls on the hot paths stop inlining).
func (in *Interp) quickenCall(ins *bytecode.Instr, ics []vmIC, fr *frame, recv Value) bool {
	n := ins.Node.(*ast.Call)
	argc := int(ins.A)
	if ins.B == 0 {
		if m := fr.class.findMethod(n.Name, argc); m != nil {
			ics[ins.C] = vmIC{class: fr.class, m: m, cf: in.compiledFor(m), static: m.Mods.Has(ast.ModStatic)}
			ins.Op = bytecode.OpQCallSelf
			return true
		}
		return false
	}
	switch recv.K {
	case KRef:
		obj := recv.R.(*Object)
		if m := obj.Class.findMethod(n.Name, argc); m != nil {
			ics[ins.C] = vmIC{class: obj.Class, m: m, cf: in.compiledFor(m)}
			ins.Op = bytecode.OpQCallVirtual
			return true
		}
	case KClassRef:
		cls := recv.R.(string)
		if ix := int(n.SiteIx) - 1; ix >= 0 && ix < len(in.prog.sites) {
			switch ps := &in.prog.sites[ix]; ps.kind {
			case siteStaticCall:
				if ps.cls == cls {
					ics[ins.C] = vmIC{cls: cls, class: ps.ci, m: ps.m, cf: in.compiledFor(ps.m)}
					ins.Op = bytecode.OpQCallStatic
					return true
				}
			case siteBuiltinStaticCall:
				if ps.cls == cls {
					ics[ins.C] = vmIC{cls: cls}
					ins.Op = bytecode.OpQCallBuiltin
					return true
				}
			}
		}
	case KString, KSB, KBox, KThrow:
		// Builtin value-kind receiver: there is no resolution to cache (the
		// runtime dispatches on the name), but the quick form skips the
		// pooled argument copy and the dispatch ladder. KRef, KClassRef and
		// KNull keep their own paths; other kinds (no methods) stay generic
		// so the walker's diagnostics apply.
		ins.Op = bytecode.OpQCallInstance
		return true
	}
	return false
}

// quickenSelect is quickenCall's counterpart for OpLoadSelect, dispatching on
// the observed receiver kind.
func (in *Interp) quickenSelect(ins *bytecode.Instr, ics []vmIC, x Value) bool {
	n := ins.Node.(*ast.Select)
	switch x.K {
	case KRef:
		obj := x.R.(*Object)
		if fix, ok := obj.Class.fieldIx[n.Name]; ok {
			ics[ins.C] = vmIC{class: obj.Class, ix: int32(fix)}
			ins.Op = bytecode.OpQGetField
			return true
		}
	case KClassRef:
		cls := x.R.(string)
		if ix := int(n.SiteIx) - 1; ix >= 0 && ix < len(in.prog.sites) {
			switch ps := &in.prog.sites[ix]; ps.kind {
			case siteStaticSel:
				if ps.cls == cls {
					ics[ins.C] = vmIC{cls: cls, cell: in.static(ps.slot)}
					ins.Op = bytecode.OpQGetStatic
					return true
				}
			case siteBuiltinConstSel:
				if ps.cls == cls {
					ics[ins.C] = vmIC{cls: cls, v: ps.v}
					ins.Op = bytecode.OpQGetConst
					return true
				}
			}
		}
	case KArr:
		if n.Name == "length" {
			ins.Op = bytecode.OpQArrLen
			return true
		}
	}
	return false
}

// icMissSelf re-resolves an OpQCallSelf site whose guard missed (the frame's
// class changed — the method body runs for another class). Identical lookup
// and failure mode to dispatchCall's unqualified path.
func (in *Interp) icMissSelf(ic *vmIC, fr *frame, n *ast.Call, argc int) {
	m := fr.class.findMethod(n.Name, argc)
	if m == nil {
		in.bugf(n.Pos, "unknown method %s/%d in class %s", n.Name, argc, fr.class.Name)
	}
	*ic = vmIC{class: fr.class, m: m, cf: in.compiledFor(m), static: m.Mods.Has(ast.ModStatic)}
}

// icMissVirtual re-resolves an OpQCallVirtual site for a new receiver class.
func (in *Interp) icMissVirtual(ic *vmIC, obj *Object, n *ast.Call, argc int) {
	m := obj.Class.findMethod(n.Name, argc)
	if m == nil {
		in.bugf(n.Pos, "class %s has no method %s/%d", obj.Class.Name, n.Name, argc)
	}
	*ic = vmIC{class: obj.Class, m: m, cf: in.compiledFor(m)}
}

// icMissField re-resolves an OpQGetField site for a new receiver class.
func (in *Interp) icMissField(ic *vmIC, obj *Object, n *ast.Select) {
	fix, ok := obj.Class.fieldIx[n.Name]
	if !ok {
		in.bugf(n.Pos, "class %s has no field %s", obj.Class.Name, n.Name)
	}
	ic.class, ic.ix = obj.Class, int32(fix)
}

// callQBuiltinStatic runs a quickened builtin static call. The guard already
// matched the site's class, so on a name/arity miss the only remaining
// outcome is dispatchCall's tail diagnostic: the class cannot be user-defined
// (the resolver would have pinned siteStaticCall) and failing builtin lookups
// charge nothing, so re-walking the generic ladder would reach the same bugf
// with the same meter state.
func (in *Interp) callQBuiltinStatic(cls string, n *ast.Call, argv []Value) Value {
	v, ok := in.callBuiltinStatic(cls, n.Name, argv, n.Pos)
	if !ok {
		in.bugf(n.Pos, "unknown static method %s.%s/%d", cls, n.Name, len(argv))
	}
	return v
}

// callQBuiltinInstance runs a quickened builtin-receiver instance call,
// mirroring dispatchCall's default arm.
func (in *Interp) callQBuiltinInstance(recv Value, n *ast.Call, argv []Value) Value {
	v, ok := in.callBuiltinInstance(recv, n.Name, argv, n.Pos)
	if !ok {
		in.bugf(n.Pos, "no method %s on %v", n.Name, recv.K)
	}
	return v
}

// icInvoke dispatches a quickened call through the cached compiled function,
// or the tree-walker when the callee has no lowering.
func (in *Interp) icInvoke(ic *vmIC, ci *classInfo, this *Object, argv []Value) Value {
	if ic.cf != nil {
		return in.invokeVM(ci, this, ic.m, ic.cf, argv)
	}
	return in.invoke(ci, this, ic.m, argv)
}

// compiledFor resolves a method to its compiled function, or nil when it runs
// on the tree-walker — the value call-site inline caches pin.
func (in *Interp) compiledFor(m *ast.Method) *compiledFn {
	if ix := int(m.CIx) - 1; uint(ix) < uint(len(in.prog.funcs)) {
		if cf := &in.prog.funcs[ix]; cf.fn != nil {
			return cf
		}
	}
	return nil
}

// DisasmWarm renders the program's compiled form using this instance's warm
// (quickened) code copies where they exist — the `jperf disasm -warm`
// backend. Functions this instance never invoked print in their cold form.
func (in *Interp) DisasmWarm() string {
	in.prog.compile()
	return in.prog.disasm(func(cf *compiledFn) string {
		if in.warm != nil {
			if w := &in.warm[cf.ix]; w.code != nil {
				return cf.fn.DisasmCode(w.code)
			}
		}
		return cf.fn.Disasm()
	})
}
