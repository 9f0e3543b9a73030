package interp

import (
	"context"
	"fmt"
	"math"
	"strings"

	"jepo/internal/energy"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/bytecode"
	"jepo/internal/minijava/token"
)

// ProbeHook receives the enter/exit events of probe-labelled methods
// (ast.Method.Probe, set by instrument.Inject). The profiler implements it.
type ProbeHook interface {
	Enter(method string)
	Exit(method string)
}

// Interp executes a loaded Program against an energy meter.
type Interp struct {
	prog  *Program
	meter *energy.Meter
	out   strings.Builder
	hook  ProbeHook

	maxOps int64 // 0 = unlimited
	ops    int64
	calls  int32  // mini-Java calls in progress, bounded by MaxCallDepth
	rngInt uint64 // deterministic LCG for Math.random

	// ctx, when set, lets a long run be cancelled or deadlined mid-flight.
	// ctxCheckAt is the ops value at which the context is next polled; the
	// check piggybacks on the existing op counter (no meter traffic, no extra
	// counters), so the energy accounting is bit-identical whether or not a
	// context is installed — cancellation only changes *whether* the run
	// completes, never what a completed run charges. Without a context,
	// ctxCheckAt stays at math.MaxInt64.
	ctx        context.Context
	ctxCheckAt int64

	// checkAt is the ops value at which checkpoint next has work: the
	// smaller of ctxCheckAt and the first count past the op budget. Both
	// engines test it with one compare per step; with neither a context nor
	// a budget it is math.MaxInt64 and never fires.
	checkAt int64

	engine       Engine
	staticsReady bool

	// statics holds this instance's static field values and addresses,
	// indexed by staticSlot.ix. The Program only describes the slots, so
	// interpreters sharing a Program run with independent statics.
	statics []staticCell

	// siteCache is the one run-time resolution cache of both engines: a
	// monomorphic entry per call and select site, indexed by SiteIx-1 (the
	// walker) or by a call or select instruction's C operand (the VM),
	// which Finalize set to the same index. The interpreter is
	// single-threaded by design, so no locking is needed.
	siteCache []siteState

	// framePool, argPool and stackPool are free lists for frame slot arrays,
	// argument slices and VM operand stacks; invoke-heavy programs recycle
	// instead of allocating. Stacks get their own pool: their capacities
	// (MaxStack) differ from argument-list lengths, and the pools only ever
	// inspect their top entry — mixing the two sizes caused steady-state
	// allocations whenever a small argument slice surfaced above a stack
	// request.
	framePool [][]cell
	argPool   [][]Value
	stackPool [][]Value
}

// staticCell is one static field's per-instance state: its value and the
// simulated address InitStatics allocated for it.
type staticCell struct {
	V    Value
	Addr uint64
}

// static returns this instance's cell for a static slot.
func (in *Interp) static(s *staticSlot) *staticCell { return &in.statics[s.ix] }

// siteState is one monomorphic cache entry: the last dynamic class seen at
// the site together with the resolved method (call sites) or field slot
// index (select sites). A site is only ever one of the two. A miss refills
// the entry through resolveSelf, resolveVirtual or resolveField.
type siteState struct {
	class *classInfo
	m     *ast.Method
	ix    int32
}

// Option configures an interpreter.
type Option func(*Interp)

// WithHook installs the hook probe-labelled methods report to.
func WithHook(h ProbeHook) Option { return func(in *Interp) { in.hook = h } }

// WithMaxOps bounds the number of interpreted nodes, turning runaway programs
// into an error instead of a hang.
func WithMaxOps(n int64) Option { return func(in *Interp) { in.maxOps = n } }

// DefaultMaxOps is the op budget measurement runs get when their caller
// configures none: far beyond any program in the repository's corpora, small
// enough that a runaway loop ends in an error.
const DefaultMaxOps int64 = 500_000_000

// MaxCallDepth bounds nested mini-Java calls (methods and constructors) on
// both engines: the call past it fails the run with an error, as the op
// budget does, and mini-Java code cannot catch it. Every nested call holds
// Go stack (about 2 KB on either engine, plus up to about 0.6 KB per
// expression level on the tree-walker, whose evaluation recurses through
// the expression the call sits in), so together with parser.MaxDepth the
// bound caps a run's Go stack far below the runtime's fatal limit (see
// DESIGN.md). The deepest recursion in the repository's programs is fib(17).
const MaxCallDepth = 1024

// ctxCheckInterval is how many budget-counted ops run between context polls.
// Small enough that cancellation lands within microseconds of real work,
// large enough that the poll is noise against the dispatch loop.
const ctxCheckInterval = 16384

// WithContext makes the run cancellable: the interpreter polls ctx every
// ctxCheckInterval budget-counted ops (on the same counter and the same
// compare the op budget uses) and aborts with ctx.Err() once it is done. A
// nil or Background context is not installed and costs nothing.
func WithContext(ctx context.Context) Option {
	return func(in *Interp) {
		if ctx == nil || ctx.Done() == nil {
			return
		}
		in.ctx = ctx
		in.ctxCheckAt = ctxCheckInterval
	}
}

// New builds an interpreter for prog charging energy to meter.
func New(prog *Program, meter *energy.Meter, opts ...Option) *Interp {
	in := &Interp{
		prog:       prog,
		meter:      meter,
		rngInt:     0x9E3779B97F4A7C15,
		ctxCheckAt: math.MaxInt64,
		siteCache:  make([]siteState, len(prog.sites)),
		statics:    make([]staticCell, prog.nStatics),
	}
	for _, o := range opts {
		o(in)
	}
	in.armCheck()
	return in
}

// Output returns everything the program printed via System.out.
func (in *Interp) Output() string { return in.out.String() }

// Meter exposes the meter the interpreter charges.
func (in *Interp) Meter() *energy.Meter { return in.meter }

// Ops reports the number of budget-counted steps executed so far. Both
// engines account the same step per AST node (the VM folds step-only
// prefixes into Instr.Steps), so the count is engine-independent — the
// differential fuzz pins this.
func (in *Interp) Ops() int64 { return in.ops }

// --- error plumbing ---

// javaPanic carries an in-flight mini-Java exception.
type javaPanic struct{ t *Throwable }

// bugPanic carries an interpreter-level error (type mismatch, unknown name).
type bugPanic struct{ msg string }

// cancelPanic unwinds a run whose context was cancelled or deadlined; the
// API boundary converts it back into the context's error.
type cancelPanic struct{ err error }

func (in *Interp) bugf(pos token.Pos, format string, args ...any) {
	where := ""
	if pos.Valid() {
		where = pos.String() + ": "
	}
	panic(bugPanic{where + fmt.Sprintf(format, args...)})
}

func (in *Interp) throw(class, msg string) {
	in.meter.Step(energy.OpThrow, 1)
	panic(javaPanic{&Throwable{Class: class, Msg: msg}})
}

// UncaughtError is returned when the program lets an exception escape.
type UncaughtError struct{ T *Throwable }

func (e *UncaughtError) Error() string {
	return "uncaught exception: " + (&Value{K: KThrow, R: e.T}).JavaString()
}

// run invokes f converting panics into errors at the API boundary.
func (in *Interp) run(f func() Value) (v Value, err error) {
	defer func() {
		switch r := recover().(type) {
		case nil:
		case javaPanic:
			err = &UncaughtError{T: r.t}
		case bugPanic:
			err = fmt.Errorf("interp: %s", r.msg)
		case cancelPanic:
			err = r.err
		default:
			panic(r)
		}
	}()
	if err := in.InitStatics(); err != nil {
		return Value{}, err
	}
	return f(), nil
}

// --- public entry points ---

// InitStatics runs every static field initializer once, in load order. Every
// run passes through it, so it is also where a Program is compiled: by the
// first instance to run it.
func (in *Interp) InitStatics() (err error) {
	if in.staticsReady {
		return nil
	}
	in.prog.compile()
	defer func() {
		switch r := recover().(type) {
		case nil:
		case javaPanic:
			err = &UncaughtError{T: r.t}
		case bugPanic:
			err = fmt.Errorf("interp: %s", r.msg)
		case cancelPanic:
			err = r.err
		default:
			panic(r)
		}
	}()
	in.staticsReady = true
	for _, name := range in.prog.order {
		ci := in.prog.classes[name]
		for _, fname := range ci.statOrd {
			slot := ci.statics[fname]
			c := in.static(slot)
			c.Addr = in.meter.Alloc(8)
			if slot.Init != nil {
				fr := frame{class: ci}
				c.V = in.coerceTo(in.evalInit(&fr, slot.Init, slot.Type), slot.Type, slot.Init.NodePos())
			} else {
				c.V = zeroValue(slot.Type)
			}
		}
	}
	return nil
}

// RunMain locates the main method of the named class (or the unique main in
// the program when mainClass is "") and executes it.
func (in *Interp) RunMain(mainClass string) error {
	ci, m, err := in.prog.entry(mainClass)
	if err != nil {
		return err
	}
	args := in.newArray(ast.Type{Kind: ast.ClassType, Name: "String"}, []int{0})
	_, err = in.run(func() Value {
		return in.invoke(ci, nil, m, []Value{args})
	})
	return err
}

// CallStatic invokes a static method with the given values and returns its
// result. It is the harness entry point for kernels.
func (in *Interp) CallStatic(class, method string, args ...Value) (Value, error) {
	ci, ok := in.prog.classes[class]
	if !ok {
		return Value{}, fmt.Errorf("interp: unknown class %s", class)
	}
	m := ci.findMethod(method, len(args))
	if m == nil {
		return Value{}, fmt.Errorf("interp: no method %s.%s/%d", class, method, len(args))
	}
	return in.run(func() Value { return in.invoke(ci, nil, m, args) })
}

// Bind overwrites a static field with a host-provided value, coercing it to
// the field's declared type (binding an int into a double slot stores 1.0,
// not a raw int bit pattern). The coercion is host-side bookkeeping and
// charges nothing to the meter. Bind is how experiment harnesses inject
// datasets without parsing gigantic literals.
func (in *Interp) Bind(class, field string, v Value) error {
	if err := in.InitStatics(); err != nil {
		return err
	}
	ci, ok := in.prog.classes[class]
	if !ok {
		return fmt.Errorf("interp: unknown class %s", class)
	}
	slot := ci.findStatic(field)
	if slot == nil {
		return fmt.Errorf("interp: class %s has no static field %s", class, field)
	}
	cv, err := hostCoerce(v, slot.Type)
	if err != nil {
		return fmt.Errorf("interp: bind %s.%s: %w", class, field, err)
	}
	in.static(slot).V = cv
	return nil
}

// hostCoerce converts a host-provided value to a declared type without
// touching the meter (unlike coerceTo, which models the program's own
// conversions and charges narrowing/boxing costs).
func hostCoerce(v Value, t ast.Type) (Value, error) {
	if t.Dims > 0 {
		if v.K == KArr || v.K == KNull {
			return v, nil
		}
		return Value{}, fmt.Errorf("cannot bind %v to array type %s", v.K, t)
	}
	target := kindOfType(t)
	if v.K == target {
		return v, nil
	}
	switch target {
	case KInt, KLong, KShort, KByte, KChar:
		if !v.K.IsNumeric() {
			return Value{}, fmt.Errorf("cannot bind %v to %s", v.K, t)
		}
		switch target {
		case KInt:
			return IntVal(v.AsI64()), nil
		case KLong:
			return LongVal(v.AsI64()), nil
		case KShort:
			return ShortVal(v.AsI64()), nil
		case KByte:
			return ByteVal(v.AsI64()), nil
		default:
			return CharVal(v.AsI64()), nil
		}
	case KFloat, KDouble:
		if !v.K.IsNumeric() {
			return Value{}, fmt.Errorf("cannot bind %v to %s", v.K, t)
		}
		if target == KFloat {
			return FloatVal(v.AsF64()), nil
		}
		return DoubleVal(v.AsF64()), nil
	case KBool, KString, KSB, KBox:
		if v.K == KNull {
			return v, nil
		}
	case KRef:
		switch v.K {
		case KRef, KNull, KThrow, KString, KArr, KSB, KBox:
			return v, nil
		}
	}
	return Value{}, fmt.Errorf("cannot bind %v to %s", v.K, t)
}

// NewIntArray, NewDoubleArray and friends build host arrays for Bind.
func (in *Interp) NewIntArray(data []int64) Value {
	a := in.newArrayRaw(ast.Type{Kind: ast.Int}, len(data))
	copy(a.R.(*Array).I, data)
	return a
}

// NewDoubleArray builds a double[] from host data.
func (in *Interp) NewDoubleArray(data []float64) Value {
	a := in.newArrayRaw(ast.Type{Kind: ast.Double}, len(data))
	copy(a.R.(*Array).D, data)
	return a
}

// NewDoubleMatrix builds a double[][] from host data.
func (in *Interp) NewDoubleMatrix(data [][]float64) Value {
	outer := in.newArrayRaw(ast.Type{Kind: ast.Double, Dims: 1}, len(data))
	oa := outer.R.(*Array)
	for i, row := range data {
		oa.R[i] = in.NewDoubleArray(row)
	}
	return outer
}

// --- frames ---

// cell is one frame slot. live distinguishes a declared local from a slot
// whose declaration statement has not executed yet (the dialect declares at
// execution time, so on a loop's first iteration an identifier can run
// before its declaration and must fall back to field/static lookup).
type cell struct {
	t    ast.Type
	v    Value
	k    Kind // kindOfType(t), precomputed so stores can skip coerceTo on identity
	live bool
}

// frame is one activation record. locals is a flat slot array sized by the
// resolver's Method.NSlots; field-initializer and static-initializer frames
// have no slots.
type frame struct {
	class  *classInfo
	this   *Object
	locals []cell
}

// grabLocals returns a zeroed slot array of length n, recycling from the
// frame free list when possible.
func (in *Interp) grabLocals(n int) []cell {
	if k := len(in.framePool) - 1; k >= 0 && cap(in.framePool[k]) >= n {
		s := in.framePool[k][:n]
		in.framePool = in.framePool[:k]
		for i := range s {
			s[i] = cell{}
		}
		return s
	}
	if n == 0 {
		return nil
	}
	c := n
	if c < 8 {
		c = 8
	}
	return make([]cell, n, c)
}

// releaseLocals returns a slot array to the free list. Callers release via
// defer so mini-Java exception unwinding keeps the pool balanced.
func (in *Interp) releaseLocals(s []cell) {
	if cap(s) > 0 {
		in.framePool = append(in.framePool, s[:0])
	}
}

// grabArgs returns an argument slice of length n from the free list. Every
// element is overwritten by the caller before use.
func (in *Interp) grabArgs(n int) []Value {
	if n == 0 {
		return nil
	}
	if k := len(in.argPool) - 1; k >= 0 && cap(in.argPool[k]) >= n {
		s := in.argPool[k][:n]
		in.argPool = in.argPool[:k]
		return s
	}
	c := n
	if c < 4 {
		c = 4
	}
	return make([]Value, n, c)
}

// releaseArgs returns an argument slice to the free list once the callee has
// copied the values out. Slices abandoned by exception unwinding are simply
// collected by the GC.
func (in *Interp) releaseArgs(s []Value) {
	if cap(s) > 0 {
		in.argPool = append(in.argPool, s[:0])
	}
}

// grabStack returns a VM operand stack of length n from its own free list,
// kept separate from argPool so the two size populations never evict each
// other (the pools only consult their top entry).
func (in *Interp) grabStack(n int) []Value {
	if n == 0 {
		return nil
	}
	if k := len(in.stackPool) - 1; k >= 0 && cap(in.stackPool[k]) >= n {
		s := in.stackPool[k][:n]
		in.stackPool = in.stackPool[:k]
		return s
	}
	c := n
	if c < 8 {
		c = 8
	}
	return make([]Value, n, c)
}

func (in *Interp) releaseStack(s []Value) {
	if cap(s) > 0 {
		in.stackPool = append(in.stackPool, s[:0])
	}
}

// --- statement execution ---

type ctrlKind int

const (
	ctrlNormal ctrlKind = iota
	ctrlBreak
	ctrlContinue
	ctrlReturn
)

type ctrl struct {
	kind ctrlKind
	v    Value
}

var normal = ctrl{}

// step counts one interpreted node against the op budget. It is charged on
// every AST node, so it stays within the inlining budget: the budget and the
// context poll share one compare, and their work lives in checkpoint.
func (in *Interp) step() {
	in.ops++
	if in.ops >= in.checkAt {
		in.checkpoint()
	}
}

// armCheck points checkAt at the next op count that needs checkpoint. The
// budget term is maxOps+1, the first count past the budget, skipped when it
// would overflow.
func (in *Interp) armCheck() {
	in.checkAt = in.ctxCheckAt
	if in.maxOps > 0 && in.maxOps < in.checkAt-1 {
		in.checkAt = in.maxOps + 1
	}
}

// enterCall counts one nested call against MaxCallDepth; leaveCall undoes
// it, on normal return and on unwinding alike.
func (in *Interp) enterCall() {
	if in.calls == MaxCallDepth {
		panic(bugPanic{fmt.Sprintf("call depth of %d exceeded (likely unbounded recursion)", MaxCallDepth)})
	}
	in.calls++
}

// leaveCall ends a call: it returns the frame's slots and the VM operand
// stack (nil on the walker) to their free lists and undoes enterCall.
func (in *Interp) leaveCall(locals []cell, stack []Value) {
	in.calls--
	in.releaseLocals(locals)
	in.releaseStack(stack)
}

// checkpoint runs the two checks checkAt stands for, budget first: a run
// past its op budget fails, and a due context poll re-arms the next poll
// point and aborts a run whose context is done. It charges nothing to the
// meter — cancellation never perturbs the energy accounting of runs that
// complete.
//
//go:noinline
func (in *Interp) checkpoint() {
	if in.maxOps > 0 && in.ops > in.maxOps {
		panic(bugPanic{fmt.Sprintf("op budget of %d exceeded (likely an infinite loop)", in.maxOps)})
	}
	if in.ops >= in.ctxCheckAt {
		in.ctxCheckAt = in.ops + ctxCheckInterval
		in.armCheck()
		if err := in.ctx.Err(); err != nil {
			panic(cancelPanic{err})
		}
	}
}

func (in *Interp) exec(fr *frame, s ast.Stmt) ctrl {
	in.step()
	// Cases ordered by dynamic frequency; expression statements and branches
	// dominate loop bodies.
	switch n := s.(type) {
	case *ast.ExprStmt:
		in.evalStmtExpr(fr, n.X)
		return normal
	case *ast.If:
		in.meter.Step(energy.OpBranch, 1)
		if in.evalCond(fr, n.Cond) {
			return in.exec(fr, n.Then)
		}
		if n.Else != nil {
			return in.exec(fr, n.Else)
		}
		return normal
	case *ast.Block:
		for _, st := range n.Stmts {
			if c := in.exec(fr, st); c.kind != ctrlNormal {
				return c
			}
		}
		return normal
	case *ast.Return:
		if n.X == nil {
			return ctrl{kind: ctrlReturn}
		}
		return ctrl{kind: ctrlReturn, v: in.operand(fr, n.X)}
	case *ast.LocalVar:
		k := kindOfType(n.Type)
		var v Value
		if n.Init != nil {
			v = in.evalInit(fr, n.Init, n.Type)
			in.assignConv(&v, k, &n.Type, n.Pos)
		} else {
			v = zeroValue(n.Type)
		}
		if s := int(n.Slot) - 1; s >= 0 && s < len(fr.locals) {
			fr.locals[s] = cell{t: n.Type, k: k, v: v, live: true}
		} else {
			in.bugf(n.Pos, "unresolved local variable %s", n.Name)
		}
		in.meter.Step(energy.OpLocal, 1)
		return normal
	case *ast.While:
		for {
			in.meter.Step(energy.OpBranch, 1)
			if !in.evalCond(fr, n.Cond) {
				return normal
			}
			c := in.exec(fr, n.Body)
			switch c.kind {
			case ctrlBreak:
				return normal
			case ctrlReturn:
				return c
			}
		}
	case *ast.DoWhile:
		for {
			c := in.exec(fr, n.Body)
			switch c.kind {
			case ctrlBreak:
				return normal
			case ctrlReturn:
				return c
			}
			in.meter.Step(energy.OpBranch, 1)
			if !in.evalCond(fr, n.Cond) {
				return normal
			}
		}
	case *ast.Switch:
		return in.execSwitch(fr, n)
	case *ast.For:
		if n.Init != nil {
			if c := in.exec(fr, n.Init); c.kind != ctrlNormal {
				return c
			}
		}
		for {
			if n.Cond != nil {
				in.meter.Step(energy.OpBranch, 1)
				if !in.evalCond(fr, n.Cond) {
					return normal
				}
			}
			c := in.exec(fr, n.Body)
			switch c.kind {
			case ctrlBreak:
				return normal
			case ctrlReturn:
				return c
			}
			for _, post := range n.Post {
				in.evalStmtExpr(fr, post)
			}
		}
	case *ast.Break:
		return ctrl{kind: ctrlBreak}
	case *ast.Continue:
		return ctrl{kind: ctrlContinue}
	case *ast.Empty:
		return normal
	case *ast.Throw:
		v := in.eval(fr, n.X)
		if v.K != KThrow {
			in.bugf(n.Pos, "throw of non-throwable %v", v.K)
		}
		in.meter.Step(energy.OpThrow, 1)
		panic(javaPanic{v.R.(*Throwable)})
	case *ast.Try:
		return in.execTry(fr, n)
	}
	in.bugf(s.NodePos(), "unsupported statement %T", s)
	return normal
}

// execSwitch implements switch with Java fall-through: execution starts at
// the first matching arm (or default) and continues into following arms
// until a break. Each candidate comparison charges a branch plus the
// comparison itself, modelling a lookupswitch.
func (in *Interp) execSwitch(fr *frame, sw *ast.Switch) ctrl {
	tag := in.eval(fr, sw.Tag)
	if tag.K == KBox {
		tag = in.unbox(tag, sw.Pos)
	}
	start := -1
	defaultArm := -1
	for ci, arm := range sw.Cases {
		if len(arm.Values) == 0 {
			defaultArm = ci
			continue
		}
		for _, vexpr := range arm.Values {
			v := in.eval(fr, vexpr)
			in.meter.Step(energy.OpBranch, 1)
			if in.switchMatches(tag, v, sw.Pos) {
				start = ci
				break
			}
		}
		if start >= 0 {
			break
		}
	}
	if start < 0 {
		start = defaultArm
	}
	if start < 0 {
		return normal
	}
	for ci := start; ci < len(sw.Cases); ci++ {
		for _, st := range sw.Cases[ci].Stmts {
			c := in.exec(fr, st)
			switch c.kind {
			case ctrlBreak:
				return normal
			case ctrlNormal:
			default:
				return c
			}
		}
	}
	return normal
}

// switchMatches compares a switch tag to a case value: numeric equality for
// integral tags, String.equals semantics for string tags.
func (in *Interp) switchMatches(tag, v Value, pos token.Pos) bool {
	if tag.K == KString {
		if v.K != KString {
			in.bugf(pos, "switch over String with non-String case")
		}
		in.meter.Step(energy.OpStrEqualsChar, min(len(tag.Str()), len(v.Str())))
		return tag.Str() == v.Str()
	}
	if !tag.K.IsIntegral() || !v.K.IsIntegral() {
		in.bugf(pos, "switch tag must be integral or String, got %v", tag.K)
	}
	in.meter.Step(energy.OpArithInt, 1)
	return tag.I == v.I
}

// execTry implements try/catch/finally with Java's ordering: the finally
// block always runs, and a non-normal completion inside it replaces the
// pending control flow or exception.
func (in *Interp) execTry(fr *frame, t *ast.Try) ctrl {
	in.meter.Step(energy.OpTryEnter, 1)
	c, thrown := in.runProtected(fr, t.Block)
	if thrown != nil {
		handled := false
		for _, cat := range t.Catches {
			if thrown.instanceOf(cat.Type) {
				in.meter.Step(energy.OpCatch, 1)
				if s := int(cat.Slot) - 1; s >= 0 && s < len(fr.locals) {
					ct := ast.Type{Kind: ast.ClassType, Name: cat.Type}
					fr.locals[s] = cell{
						t:    ct,
						k:    kindOfType(ct),
						v:    Value{K: KThrow, R: thrown},
						live: true,
					}
				} else {
					in.bugf(cat.Pos, "unresolved catch variable %s", cat.Name)
				}
				c, thrown = in.runProtected(fr, cat.Block)
				handled = true
				break
			}
		}
		_ = handled
	}
	if t.Finally != nil {
		if fc := in.exec(fr, t.Finally); fc.kind != ctrlNormal {
			return fc // finally's control flow wins, discarding the exception
		}
	}
	if thrown != nil {
		panic(javaPanic{thrown})
	}
	return c
}

// runProtected executes a block, capturing a thrown mini-Java exception.
func (in *Interp) runProtected(fr *frame, blk *ast.Block) (c ctrl, thrown *Throwable) {
	defer func() {
		if r := recover(); r != nil {
			if jp, ok := r.(javaPanic); ok {
				thrown = jp.t
				return
			}
			panic(r)
		}
	}()
	return in.exec(fr, blk), nil
}

// evalCond evaluates a boolean expression.
func (in *Interp) evalCond(fr *frame, e ast.Expr) bool {
	v := in.operand(fr, e)
	if v.K == KBox {
		v = in.unbox(v, e.NodePos())
	}
	if v.K != KBool {
		in.bugf(e.NodePos(), "condition is %v, not boolean", v.K)
	}
	return v.I != 0
}

// --- method invocation ---

// invoke is the one method entry of both engines. It runs a method with
// already-evaluated arguments: the call charge, parameter coercion into a
// frame whose slot array comes from the free list (and goes back on the way
// out, also when a mini-Java exception unwinds through the call), the body —
// on execVM when the VM engine runs and the method has a lowering, on the
// walker otherwise — and return-value coercion only for an explicit return
// in a non-void method. A probe-labelled method reports to the hook around
// its body (see probed). args is only read before the body runs, so a caller
// may pass a window of its own operand stack.
func (in *Interp) invoke(ci *classInfo, this *Object, m *ast.Method, args []Value) Value {
	in.enterCall()
	in.meter.Step(energy.OpCall, 1)
	var cf *compiledFn
	var stack []Value
	if in.engine == EngineVM {
		if ix := int(m.CIx) - 1; uint(ix) < uint(len(in.prog.funcs)) && in.prog.funcs[ix].fn != nil {
			cf = &in.prog.funcs[ix]
			stack = in.grabStack(cf.fn.MaxStack)
		}
	}
	fr := frame{class: ci, this: this, locals: in.grabLocals(int(m.NSlots))}
	defer in.leaveCall(fr.locals, stack)
	for i := range m.Params {
		p, c := &m.Params[i], &fr.locals[i]
		c.t, c.k, c.v, c.live = p.Type, kindOfType(p.Type), args[i], true
		in.assignConv(&c.v, c.k, &c.t, m.Pos)
	}
	var ret Value
	var explicit bool
	body := func() {
		if cf != nil {
			ret, explicit = in.execVM(cf, &fr, stack)
			return
		}
		c := in.exec(&fr, m.Body)
		ret, explicit = c.v, c.kind == ctrlReturn
	}
	if m.Probe != "" && in.hook != nil {
		in.probed(m.Probe, body)
	} else {
		body()
	}
	if explicit && (m.Ret.Kind != ast.Void || m.Ret.Dims > 0) {
		return in.coerceTo(ret, m.Ret, m.Pos)
	}
	return Value{K: KVoid}
}

// probed runs a probe-labelled method body between the hook's Enter and Exit
// events; both engines call it from the same points of a call. Enter fires
// after the call charge and the parameter binding, and Exit after the body,
// before return-value coercion (which may charge a narrowing). A mini-Java
// exception leaving the body fires Exit on its way out; an interpreter
// error, a cancellation or an op-budget trip fires none, since the run ends
// there. The events charge nothing, so a profiled run charges exactly what
// an unprofiled one does (DESIGN.md, "One probe path").
func (in *Interp) probed(label string, body func()) {
	in.hook.Enter(label)
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(javaPanic); ok {
				in.hook.Exit(label)
			}
			panic(r)
		}
	}()
	body()
	in.hook.Exit(label)
}

// construct builds a new instance of a user class and runs the given
// constructor (nil means the implicit zero-argument one).
func (in *Interp) construct(ci *classInfo, ctor *ast.Method, args []Value, pos token.Pos) Value {
	in.meter.Step(energy.OpAllocObject, 1)
	obj := &Object{
		Class: ci,
		Slots: make([]Value, len(ci.fields)),
		Base:  in.meter.Alloc(16 + 8*len(ci.fields)),
	}
	// Zero-init then run declared initializers top-down.
	for i, f := range ci.fields {
		obj.Slots[i] = zeroValue(f.Type)
	}
	initFr := frame{class: ci, this: obj}
	for i, f := range ci.fields {
		if f.Init != nil {
			v := in.evalInit(&initFr, f.Init, f.Type)
			in.storeField(obj, i, &v, pos)
		}
	}
	if ctor == nil {
		if len(args) != 0 {
			in.bugf(pos, "no constructor %s/%d", ci.Name, len(args))
		}
		return Value{K: KRef, R: obj}
	}
	in.invoke(ci, obj, ctor, args)
	return Value{K: KRef, R: obj}
}

// --- expression evaluation ---

// evalInit evaluates an initializer, using the declared type to interpret
// array literals.
func (in *Interp) evalInit(fr *frame, e ast.Expr, t ast.Type) Value {
	if lit, ok := e.(*ast.ArrayLit); ok {
		return in.buildArrayLit(fr, lit, t)
	}
	return in.operand(fr, e)
}

func (in *Interp) buildArrayLit(fr *frame, lit *ast.ArrayLit, t ast.Type) Value {
	if t.Dims == 0 {
		in.bugf(lit.Pos, "array literal for non-array type %s", t)
	}
	v := in.newArrayRaw(t.Elem(), len(lit.Elems))
	arr := v.R.(*Array)
	elemT := t.Elem()
	for i, el := range lit.Elems {
		ev := in.evalInit(fr, el, elemT)
		arr.set(i, in.coerceTo(ev, elemT, lit.Pos))
		in.meter.Step(energy.OpArrayElem, 1)
		in.meter.Access(arr.addr(i), arr.ES)
	}
	return v
}

func (in *Interp) eval(fr *frame, e ast.Expr) Value {
	in.step()
	// Cases ordered by dynamic frequency: idents, literals and arithmetic
	// dominate every workload in the benchmark suite.
	switch n := e.(type) {
	case *ast.Ident:
		return in.evalIdent(fr, n)
	case *ast.Literal:
		in.chargeLiteral(n)
		return literalValue(n)
	case *ast.Binary:
		return in.evalBinary(fr, n)
	case *ast.Assign:
		return in.evalAssign(fr, n)
	case *ast.Select:
		return in.evalSelect(fr, n)
	case *ast.Call:
		return in.evalCall(fr, n)
	case *ast.Index:
		arr, idx := in.evalIndexOperands(fr, n)
		return arr.get(idx)
	case *ast.Unary:
		return in.evalUnary(fr, n)
	case *ast.This:
		if fr.this == nil {
			in.bugf(n.Pos, "this in static context")
		}
		return Value{K: KRef, R: fr.this}
	case *ast.New:
		return in.evalNew(fr, n)
	case *ast.NewArray:
		return in.evalNewArray(fr, n)
	case *ast.ArrayLit:
		in.bugf(n.Pos, "array literal outside an initializer")
	case *ast.Ternary:
		in.meter.Step(energy.OpBranch, 1)
		in.meter.Step(energy.OpTernary, 1)
		if in.evalCond(fr, n.Cond) {
			return in.eval(fr, n.Then)
		}
		return in.eval(fr, n.Else)
	case *ast.Cast:
		return in.evalCast(fr, n)
	case *ast.InstanceOf:
		v := in.eval(fr, n.X)
		in.meter.Step(energy.OpArithInt, 1)
		return BoolVal(in.valueInstanceOf(v, n.Name))
	}
	in.bugf(e.NodePos(), "unsupported expression %T", e)
	return Value{}
}

// chargeLiteral charges evaluating a literal, as the VM's constant pool
// does, through bytecode.LiteralCharge; literalValue is the value. Callers
// return literalValue directly rather than through a wrapper, which costs a
// Value copy per literal.
func (in *Interp) chargeLiteral(n *ast.Literal) {
	if op, ok := bytecode.LiteralCharge(n); ok {
		in.meter.Step(op, 1)
	}
}

// literalValue is the value a literal evaluates to, on both engines.
func literalValue(n *ast.Literal) Value {
	switch n.Kind {
	case ast.LitInt:
		return IntVal(n.I)
	case ast.LitLong:
		return LongVal(n.I)
	case ast.LitFloat:
		return FloatVal(n.D)
	case ast.LitDouble:
		return DoubleVal(n.D)
	case ast.LitChar:
		return CharVal(n.I)
	case ast.LitString:
		return StringVal(n.S)
	case ast.LitBool:
		return BoolVal(n.I != 0)
	case ast.LitNull:
		return NullVal()
	}
	return Value{}
}

// evalIdent resolves, in order: local, instance field, static field of the
// enclosing class, then a class name. The resolver's annotations let the
// common cases skip the map lookups; anything it could not pin down falls
// through to evalIdentSlow, the original dynamic ladder.
func (in *Interp) evalIdent(fr *frame, n *ast.Ident) Value {
	if c := fr.localCell(n); c != nil {
		in.meter.Step(energy.OpLocal, 1)
		return c.v
	}
	switch n.RKind {
	case ast.ResField:
		if this := fr.this; this != nil {
			if ix := int(n.RIx); ix < len(this.Slots) {
				return *in.loadField(this, ix)
			}
		}
	case ast.ResStaticRef:
		if ix := int(n.RIx); ix < len(in.prog.statRefs) {
			return *in.loadStatic(in.prog.statRefs[ix])
		}
	case ast.ResStatic:
		if fr.class != nil {
			if slot := fr.class.flatStatics[n.Name]; slot != nil {
				return *in.loadStatic(slot)
			}
		}
	case ast.ResClass:
		if ix := int(n.RIx); ix < len(in.prog.classRefs) {
			return in.prog.classRefs[ix]
		}
	}
	return in.evalIdentSlow(fr, n)
}

// evalIdentSlow is the fully dynamic resolution ladder for identifiers the
// resolver left unresolved (and the error reporter for broken annotations).
// Locals need no re-check here: a name is only ever a local if the resolver
// assigned it a slot, which evalIdent already consulted.
func (in *Interp) evalIdentSlow(fr *frame, n *ast.Ident) Value {
	if fr.this != nil {
		if ix, ok := fr.this.Class.fieldIx[n.Name]; ok {
			return *in.loadField(fr.this, ix)
		}
	}
	if fr.class != nil {
		if slot := fr.class.findStatic(n.Name); slot != nil {
			return *in.loadStatic(slot)
		}
	}
	if _, ok := in.prog.classes[n.Name]; ok || isBuiltinClass(n.Name) {
		return Value{K: KClassRef, R: n.Name}
	}
	in.bugf(n.Pos, "unknown identifier %s", n.Name)
	return Value{}
}

// loadField and storeField are the one instance-field load and store of
// both engines, and loadStatic and storeStatic the one static-field pair.
// Each charges the access (FieldAccess, StaticAccess). A load returns the
// slot it read, for the caller to copy: a returned Value is copied through
// memory at a cost the hot lanes notice. A store converts *v in place
// through assignConv and stores it, so *v is the stored value afterwards —
// the value of an assignment expression (JLS §15.26).
func (in *Interp) loadField(obj *Object, ix int) *Value {
	in.meter.FieldAccess(obj.Base + 16 + uint64(8*ix))
	return &obj.Slots[ix]
}

func (in *Interp) storeField(obj *Object, ix int, v *Value, pos token.Pos) {
	in.meter.FieldAccess(obj.Base + 16 + uint64(8*ix))
	fi := &obj.Class.fields[ix]
	in.assignConv(v, fi.K, &fi.Type, pos)
	obj.Slots[ix] = *v
}

func (in *Interp) loadStatic(s *staticSlot) *Value {
	c := in.static(s)
	in.meter.StaticAccess(c.Addr)
	return &c.V
}

func (in *Interp) storeStatic(s *staticSlot, v *Value, pos token.Pos) {
	c := in.static(s)
	in.meter.StaticAccess(c.Addr)
	in.assignConv(v, s.K, &s.Type, pos)
	c.V = *v
}

func (in *Interp) evalSelect(fr *frame, n *ast.Select) Value {
	return in.selectFrom(in.operand(fr, n.X), n)
}

// selectFrom reads field n.Name from an already-evaluated receiver — shared
// by the tree-walk above and the VM's OpLoadSelect.
func (in *Interp) selectFrom(x Value, n *ast.Select) Value {
	switch x.K {
	case KClassRef:
		cls := x.R.(string)
		switch ps := &in.prog.sites[n.SiteIx-1]; ps.kind {
		case siteStaticSel:
			if ps.cls == cls {
				return *in.loadStatic(ps.slot)
			}
		case siteBuiltinConstSel:
			if ps.cls == cls {
				in.meter.Step(energy.OpStatic, 1)
				return ps.v
			}
		}
		if cls == "System" && n.Name == "out" {
			return Value{K: KClassRef, R: "System.out"}
		}
		if ci, ok := in.prog.classes[cls]; ok {
			if slot := ci.findStatic(n.Name); slot != nil {
				return *in.loadStatic(slot)
			}
		}
		if v, ok := builtinStaticField(cls, n.Name); ok {
			in.meter.Step(energy.OpStatic, 1)
			return v
		}
		in.bugf(n.Pos, "unknown static field %s.%s", cls, n.Name)
	case KArr:
		if n.Name == "length" {
			in.meter.Step(energy.OpField, 1)
			return IntVal(int64(x.R.(*Array).Len()))
		}
		in.bugf(n.Pos, "arrays have no field %s", n.Name)
	case KRef:
		obj := x.R.(*Object)
		sc := &in.siteCache[n.SiteIx-1]
		if sc.class != obj.Class {
			in.resolveField(sc, obj.Class, n)
		}
		return *in.loadField(obj, int(sc.ix))
	case KNull:
		in.throw("NullPointerException", "field "+n.Name+" on null")
	}
	in.bugf(n.Pos, "cannot select %s from %v", n.Name, x.K)
	return Value{}
}

func (in *Interp) evalIndexOperands(fr *frame, n *ast.Index) (*Array, int) {
	xv := in.operand(fr, n.X)
	iv := in.operand(fr, n.I)
	return in.element(xv, iv, n)
}

// inBounds is the lane nearly every element access takes: an int index
// within an array's bounds, which needs no other check. It reports false
// for anything else. It reads its operands in place: taking the 40-byte
// Values by value made each VM element arm copy both once more, which cost
// `jepo table1` about a tenth of its CPU.
func inBounds(xv, iv *Value) (*Array, int, bool) {
	if xv.K == KArr && iv.K == KInt {
		arr := xv.R.(*Array)
		if idx := int(iv.I); uint(idx) < uint(arr.Len()) {
			return arr, idx, true
		}
	}
	return nil, 0, false
}

// element is the one element check of both engines: it resolves an
// already-evaluated array and index to the element they designate and
// charges the access. Outside the inBounds lane it applies the null check,
// the unboxing of a boxed index, the integral check and the bounds check.
// The walker's reads and writes and, past their inline inBounds lane, the
// VM's element loads and stores all go through it.
func (in *Interp) element(xv, iv Value, n *ast.Index) (*Array, int) {
	arr, idx, ok := inBounds(&xv, &iv)
	if !ok {
		if xv.K == KNull {
			in.throw("NullPointerException", "index on null array")
		}
		if xv.K != KArr {
			in.bugf(n.Pos, "indexing non-array %v", xv.K)
		}
		if iv.K == KBox {
			iv = in.unbox(iv, n.Pos)
		}
		if !iv.K.IsIntegral() {
			in.bugf(n.Pos, "array index is %v, not integral", iv.K)
		}
		arr, idx = xv.R.(*Array), int(iv.I)
		if idx < 0 || idx >= arr.Len() {
			in.throw("ArrayIndexOutOfBoundsException",
				fmt.Sprintf("Index %d out of bounds for length %d", idx, arr.Len()))
		}
	}
	in.meter.ArrayAccess(arr.addr(idx), arr.ES)
	return arr, idx
}

func (in *Interp) evalNew(fr *frame, n *ast.New) Value {
	args := in.evalArgs(fr, n.Args)
	v := in.newDispatch(n, args)
	in.releaseArgs(args)
	return v
}

// newDispatch constructs n with already-evaluated arguments — shared by the
// tree-walk and the VM's OpNew. The site table resolved every New at load
// time. It never releases args: the walker's evalNew does, and the VM passes
// a window of its operand stack.
func (in *Interp) newDispatch(n *ast.New, args []Value) Value {
	if ps := &in.prog.sites[n.SiteIx-1]; ps.kind == siteNewUser {
		return in.construct(ps.ci, ps.m, args, n.Pos)
	}
	return in.constructBuiltin(n.Name, args, n.Pos)
}

func (in *Interp) evalNewArray(fr *frame, n *ast.NewArray) Value {
	lens := make([]int, len(n.Lens))
	for i, le := range n.Lens {
		lv := in.eval(fr, le)
		if lv.K == KBox {
			lv = in.unbox(lv, n.Pos)
		}
		if !lv.K.IsIntegral() {
			in.bugf(n.Pos, "array length is %v, not integral", lv.K)
		}
		if lv.I < 0 {
			in.throw("NegativeArraySizeException", fmt.Sprintf("%d", lv.I))
		}
		lens[i] = int(lv.I)
	}
	return in.newArray(n.Elem, lens)
}

// newArray allocates a possibly multi-dimensional array. elem is the base
// element type (its Dims are extra unsized dimensions).
func (in *Interp) newArray(elem ast.Type, lens []int) Value {
	t := elem
	t.Dims += len(lens) - 1
	v := in.newArrayRaw(t, lens[0])
	if len(lens) > 1 {
		arr := v.R.(*Array)
		for i := 0; i < lens[0]; i++ {
			arr.R[i] = in.newArray(elem, lens[1:])
		}
	}
	return v
}

// newArrayRaw allocates a 1-D array whose elements have type elemT.
func (in *Interp) newArrayRaw(elemT ast.Type, n int) Value {
	k := kindOfType(elemT)
	es := elemSize(k)
	arr := &Array{Kind: k, Elem: elemT, ES: es, Base: in.meter.Alloc(16 + n*es)}
	switch k {
	case KInt, KLong, KShort, KByte, KChar, KBool:
		arr.I = make([]int64, n)
	case KFloat, KDouble:
		arr.D = make([]float64, n)
	default:
		arr.R = make([]Value, n)
		for i := range arr.R {
			arr.R[i] = NullVal()
		}
	}
	in.meter.Step(energy.OpAllocArrayElem, n)
	return Value{K: KArr, R: arr}
}

func (in *Interp) evalUnary(fr *frame, n *ast.Unary) Value {
	switch n.Op {
	case token.Minus:
		return in.negate(in.operand(fr, n.X), n)
	case token.Not:
		v := in.operand(fr, n.X)
		if v.K == KBox {
			v = in.unbox(v, n.Pos)
		}
		if v.K != KBool {
			in.bugf(n.Pos, "unary ! on %v", v.K)
		}
		in.meter.Step(energy.OpArithInt, 1)
		return BoolVal(v.I == 0)
	case token.Inc, token.Dec:
		old := in.readLValue(fr, n.X)
		if old.K == KBox {
			old = in.unbox(old, n.Pos)
		}
		updated := in.increment(old, n)
		in.writeLValue(fr, n.X, &updated)
		if n.Postfix {
			return old
		}
		return updated
	}
	in.bugf(n.Pos, "unsupported unary operator %v", n.Op)
	return Value{}
}

// negate is unary minus on both engines: unbox, charge one arithmetic op of
// the operand's own kind, negate. A narrow operand yields an int (JLS
// §15.15.4).
func (in *Interp) negate(v Value, n *ast.Unary) Value {
	if v.K == KBox {
		v = in.unbox(v, n.Pos)
	}
	in.meter.Step(arithOp(v.K, token.Minus), 1)
	switch v.K {
	case KFloat, KDouble:
		return Value{K: v.K, D: -v.D}
	case KLong:
		return LongVal(-v.I)
	case KInt, KShort, KByte, KChar:
		return IntVal(-v.I)
	}
	in.bugf(n.Pos, "unary - on %v", v.K)
	return Value{}
}

// increment is the arithmetic of ++ and -- on both engines, applied to the
// operand's unboxed old value. It charges one arithmetic op of the operand's
// kind, and the result keeps that kind and wraps at its width (JLS
// §15.14.2), so storing it back converts and charges nothing.
func (in *Interp) increment(old Value, n *ast.Unary) Value {
	delta := int64(1)
	if n.Op == token.Dec {
		delta = -1
	}
	if !old.K.IsNumeric() {
		in.bugf(n.Pos, "%v on %v", n.Op, old.K)
	}
	in.meter.Step(arithOp(old.K, token.Plus), 1)
	if old.K == KFloat || old.K == KDouble {
		return floatOf(old.K, old.D+float64(delta))
	}
	return intOf(old.K, old.I+delta)
}

// evalStmtExpr evaluates an expression in statement position (expression
// statements and for-loop post clauses), which is nearly always an
// assignment, a call or an increment; dispatch those directly with the same
// step accounting as eval.
func (in *Interp) evalStmtExpr(fr *frame, e ast.Expr) {
	switch x := e.(type) {
	case *ast.Assign:
		in.step()
		in.evalAssign(fr, x)
	case *ast.Call:
		in.step()
		in.evalCall(fr, x)
	case *ast.Unary:
		in.step()
		in.evalUnary(fr, x)
	default:
		in.eval(fr, e)
	}
}

// localCell returns the live cell of an identifier bound to a slot, or nil
// when the identifier is not (yet) a local. Small enough to inline at the
// hot call sites in evalBinary, evalArgs and evalAssign.
func (fr *frame) localCell(n *ast.Ident) *cell {
	if s := int(n.RSlot) - 1; s >= 0 && s < len(fr.locals) {
		if c := &fr.locals[s]; c.live {
			return c
		}
	}
	return nil
}

// operand evaluates an expression that sits in operand position (binary
// operands, call arguments, conditions, return values). It is semantically
// identical to eval — same step accounting, same charges — but dispatches
// the handful of node types that dominate operand position with a short
// type-assertion ladder and reads live local slots in place, skipping a
// call frame and the full dispatch switch per leaf.
func (in *Interp) operand(fr *frame, e ast.Expr) Value {
	switch n := e.(type) {
	case *ast.Ident:
		in.step()
		if s := int(n.RSlot) - 1; s >= 0 && s < len(fr.locals) {
			if c := &fr.locals[s]; c.live {
				in.meter.Step(energy.OpLocal, 1)
				return c.v
			}
		}
		return in.evalIdent(fr, n)
	case *ast.Literal:
		in.step()
		in.chargeLiteral(n)
		return literalValue(n)
	case *ast.Binary:
		in.step()
		return in.evalBinary(fr, n)
	case *ast.Select:
		in.step()
		return in.evalSelect(fr, n)
	case *ast.Call:
		in.step()
		return in.evalCall(fr, n)
	}
	return in.eval(fr, e)
}

func (in *Interp) evalBinary(fr *frame, n *ast.Binary) Value {
	switch n.Op {
	case token.AndAnd:
		in.meter.Step(energy.OpBranch, 1)
		if !in.evalCond(fr, n.X) {
			return BoolVal(false)
		}
		return BoolVal(in.evalCond(fr, n.Y))
	case token.OrOr:
		in.meter.Step(energy.OpBranch, 1)
		if in.evalCond(fr, n.X) {
			return BoolVal(true)
		}
		return BoolVal(in.evalCond(fr, n.Y))
	}
	// Ident operands are read in place (the step/charge sequence matches
	// operand exactly); everything else goes through the operand dispatcher.
	var x, y Value
	if id, ok := n.X.(*ast.Ident); ok {
		in.step()
		if c := fr.localCell(id); c != nil {
			in.meter.Step(energy.OpLocal, 1)
			x = c.v
		} else {
			x = in.evalIdent(fr, id)
		}
	} else {
		x = in.operand(fr, n.X)
	}
	if id, ok := n.Y.(*ast.Ident); ok {
		in.step()
		if c := fr.localCell(id); c != nil {
			in.meter.Step(energy.OpLocal, 1)
			y = c.v
		} else {
			y = in.evalIdent(fr, id)
		}
	} else {
		y = in.operand(fr, n.Y)
	}
	return in.binary(n.Op, x, y, n.Pos)
}

// binary applies a (non-short-circuit) binary operator on both engines. Two
// numeric operands take one body: binary numeric promotion (JLS §5.6.2), one
// charge from arithOp, then the operator on int64 or float64. Every other
// operand pair goes through binaryRef.
func (in *Interp) binary(op token.Kind, x, y Value, pos token.Pos) Value {
	if !x.K.IsNumeric() || !y.K.IsNumeric() {
		return in.binaryRef(op, x, y, pos)
	}
	k := promote(x.K, y.K)
	if k == KFloat || k == KDouble {
		// The fields are read directly: a Value method call would copy the
		// whole operand first.
		a, b := x.D, y.D
		if x.K.IsIntegral() {
			a = widen(k, x.I)
		}
		if y.K.IsIntegral() {
			b = widen(k, y.I)
		}
		in.meter.Step(arithOp(k, op), 1)
		var r float64
		switch op {
		case token.Plus:
			r = a + b
		case token.Minus:
			r = a - b
		case token.Star:
			r = a * b
		case token.Slash:
			r = a / b // Inf or NaN, never a throw
		case token.Percent:
			r = math.Mod(a, b)
		case token.Lt:
			return BoolVal(a < b)
		case token.Le:
			return BoolVal(a <= b)
		case token.Gt:
			return BoolVal(a > b)
		case token.Ge:
			return BoolVal(a >= b)
		case token.Eq:
			return BoolVal(a == b)
		case token.Ne:
			return BoolVal(a != b)
		default:
			in.bugf(pos, "operator %v on %v and %v", op, x.K, y.K)
		}
		return floatOf(k, r)
	}
	a, b := x.I, y.I
	if op == token.Shl || op == token.Shr {
		// JLS §15.19: each operand promotes on its own, the result has the
		// left operand's type, and the distance keeps its low 5 bits for an
		// int and its low 6 bits for a long.
		k, b = KInt, b&31
		if x.K == KLong {
			k, b = KLong, y.I&63
		}
	}
	in.meter.Step(arithOp(k, op), 1)
	var r int64
	switch op {
	case token.Plus:
		r = a + b
	case token.Minus:
		r = a - b
	case token.Star:
		r = a * b
	case token.Slash, token.Percent:
		// Charged before the zero check throws.
		if b == 0 {
			in.throw("ArithmeticException", "/ by zero")
		}
		if op == token.Slash {
			r = a / b
		} else {
			r = a % b
		}
	case token.BitAnd:
		r = a & b
	case token.BitOr:
		r = a | b
	case token.BitXor:
		r = a ^ b
	case token.Shl:
		r = a << b
	case token.Shr:
		r = a >> b
	case token.Lt:
		return BoolVal(a < b)
	case token.Le:
		return BoolVal(a <= b)
	case token.Gt:
		return BoolVal(a > b)
	case token.Ge:
		return BoolVal(a >= b)
	case token.Eq:
		return BoolVal(a == b)
	case token.Ne:
		return BoolVal(a != b)
	default:
		in.bugf(pos, "operator %v on %v and %v", op, x.K, y.K)
	}
	return intOf(k, r)
}

// binaryRef is binary for operand pairs that are not both numeric: string
// concatenation, boxed operands (unboxed, then back through binary),
// reference and null equality, and boolean logic. A number compared with a
// boolean fails, as it does not compile in Java. Two boxed operands compare
// their values, where Java compares references: modelling identity would
// need the Integer.valueOf cache, which changes allocation counts.
func (in *Interp) binaryRef(op token.Kind, x, y Value, pos token.Pos) Value {
	if op == token.Plus && (x.K == KString || y.K == KString) {
		xs, ys := x.JavaString(), y.JavaString()
		in.meter.Step(energy.OpStrSetup, 1)
		in.meter.Step(energy.OpStrConcatChar, len(xs)+len(ys))
		in.meter.Alloc(16 + len(xs) + len(ys))
		return StringVal(xs + ys)
	}
	if x.K == KBox || y.K == KBox {
		return in.binary(op, in.unbox(x, pos), in.unbox(y, pos), pos)
	}
	if x.K == KBool && y.K == KBool {
		in.meter.Step(energy.OpArithInt, 1)
		a, b := x.I != 0, y.I != 0
		switch op {
		case token.BitAnd:
			return BoolVal(a && b)
		case token.BitOr:
			return BoolVal(a || b)
		case token.BitXor, token.Ne:
			return BoolVal(a != b)
		case token.Eq:
			return BoolVal(a == b)
		}
		in.bugf(pos, "operator %v on booleans", op)
	}
	if (op == token.Eq || op == token.Ne) && !(x.K == KBool && y.K.IsNumeric() || x.K.IsNumeric() && y.K == KBool) {
		in.meter.Step(energy.OpArithInt, 1)
		return BoolVal(refEqual(x, y) == (op == token.Eq))
	}
	in.bugf(pos, "operator %v on %v and %v", op, x.K, y.K)
	return Value{}
}

// intOf is v as an integral value of kind k, wrapped at k's width.
func intOf(k Kind, v int64) Value {
	switch k {
	case KInt:
		v = int64(int32(v))
	case KShort:
		v = int64(int16(v))
	case KByte:
		v = int64(int8(v))
	case KChar:
		v = int64(uint16(v))
	}
	return Value{K: k, I: v}
}

// widen converts an integral operand of a float or double operation, rounding
// as Java's int and long to float or double conversions do.
func widen(k Kind, v int64) float64 {
	if k == KFloat {
		return float64(float32(v))
	}
	return float64(v)
}

// floatOf is d as a value of kind k, rounded to float precision for KFloat.
func floatOf(k Kind, d float64) Value {
	if k == KFloat {
		d = float64(float32(d))
	}
	return Value{K: k, D: d}
}

func refEqual(x, y Value) bool {
	if x.K == KNull || y.K == KNull {
		return x.K == y.K
	}
	if x.K == KString && y.K == KString {
		// Deviation from the JLS: string == compares values, since the
		// dialect does not model interning.
		return x.Str() == y.Str()
	}
	return x.R == y.R
}

func promote(a, b Kind) Kind {
	if a == KDouble || b == KDouble {
		return KDouble
	}
	if a == KFloat || b == KFloat {
		return KFloat
	}
	if a == KLong || b == KLong {
		return KLong
	}
	return KInt
}

// arithOp is the one table from an operand kind and an operator to the
// energy op it charges, on both engines; it is where Table I's arithmetic
// ratios enter. Integral and floating division and modulus have costs of
// their own, and every other operator costs one ALU op of the kind. The VM's
// int lanes inline its int row, and TestOperatorTable pins them to it.
func arithOp(k Kind, op token.Kind) energy.Op {
	if op == token.Slash || op == token.Percent {
		switch {
		case k == KFloat || k == KDouble:
			return energy.OpDivFP
		case k.IsIntegral() && op == token.Percent:
			return energy.OpModInt
		case k.IsIntegral():
			return energy.OpDivInt
		}
	}
	switch k {
	case KLong:
		return energy.OpArithLong
	case KShort, KByte, KChar:
		return energy.OpArithNarrow
	case KFloat:
		return energy.OpArithFloat
	case KDouble:
		return energy.OpArithDouble
	}
	return energy.OpArithInt
}

// chargeArith charges one arithmetic op of kind k, priced by arithOp.
func (in *Interp) chargeArith(k Kind, op token.Kind) { in.meter.Step(arithOp(k, op), 1) }

// --- assignment ---

// evalAssign evaluates an assignment. Its value is the variable's value
// after the store (JLS §15.26), so `i += 1.5` on an int is 2: every store
// leaves the value it stored in rhs.
func (in *Interp) evalAssign(fr *frame, n *ast.Assign) Value {
	var rhs Value
	if n.Op == token.Assign {
		rhs = in.operand(fr, n.RHS)
	} else {
		old := in.readLValue(fr, n.LHS)
		r := in.operand(fr, n.RHS)
		rhs = in.binary(bytecode.CompoundBase(n.Op), old, r, n.Pos)
	}
	// Store straight into a live local slot; writeLValue handles every
	// other target (and unresolved idents) with identical charges.
	if id, ok := n.LHS.(*ast.Ident); ok {
		if c := fr.localCell(id); c != nil {
			in.meter.Step(energy.OpLocal, 1)
			in.assignConv(&rhs, c.k, &c.t, id.Pos)
			c.v = rhs
			return rhs
		}
	}
	in.writeLValue(fr, n.LHS, &rhs)
	return rhs
}

// readLValue evaluates an assignable expression for compound assignment.
func (in *Interp) readLValue(fr *frame, lhs ast.Expr) Value {
	return in.operand(fr, lhs)
}

// writeLValue stores *v into an assignable expression, charging the store,
// and leaves the stored value in *v. Identifier and field targets use the
// same resolver annotations and caches as the read paths; writeIdentSlow
// keeps the original dynamic ladder.
func (in *Interp) writeLValue(fr *frame, lhs ast.Expr, v *Value) {
	switch l := lhs.(type) {
	case *ast.Ident:
		if c := fr.localCell(l); c != nil {
			in.meter.Step(energy.OpLocal, 1)
			in.assignConv(v, c.k, &c.t, l.Pos)
			c.v = *v
			return
		}
		switch l.RKind {
		case ast.ResField:
			if this := fr.this; this != nil {
				if ix := int(l.RIx); ix < len(this.Slots) {
					in.storeField(this, ix, v, l.Pos)
					return
				}
			}
		case ast.ResStaticRef:
			if ix := int(l.RIx); ix < len(in.prog.statRefs) {
				in.storeStatic(in.prog.statRefs[ix], v, l.Pos)
				return
			}
		case ast.ResStatic:
			if fr.class != nil {
				if slot := fr.class.flatStatics[l.Name]; slot != nil {
					in.storeStatic(slot, v, l.Pos)
					return
				}
			}
		}
		in.writeIdentSlow(fr, l, v)
	case *ast.Select:
		x := in.operand(fr, l.X)
		switch x.K {
		case KRef:
			obj := x.R.(*Object)
			sc := &in.siteCache[l.SiteIx-1]
			if sc.class != obj.Class {
				in.resolveField(sc, obj.Class, l)
			}
			in.storeField(obj, int(sc.ix), v, l.Pos)
			return
		case KClassRef:
			cls := x.R.(string)
			if ps := &in.prog.sites[l.SiteIx-1]; ps.kind == siteStaticSel && ps.cls == cls {
				in.storeStatic(ps.slot, v, l.Pos)
				return
			}
			if ci, ok := in.prog.classes[cls]; ok {
				if slot := ci.findStatic(l.Name); slot != nil {
					in.storeStatic(slot, v, l.Pos)
					return
				}
			}
			in.bugf(l.Pos, "unknown static field %s.%s", cls, l.Name)
		case KNull:
			in.throw("NullPointerException", "store to field "+l.Name+" on null")
		}
		in.bugf(l.Pos, "cannot assign field of %v", x.K)
	case *ast.Index:
		arr, idx := in.evalIndexOperands(fr, l)
		in.assignConv(v, arr.Kind, &arr.Elem, l.Pos)
		arr.set(idx, *v)
	default:
		in.bugf(lhs.NodePos(), "invalid assignment target %T", lhs)
	}
}

// writeIdentSlow is the dynamic store ladder for identifiers the resolver
// left unresolved. Locals were already handled by writeLValue's slot check.
func (in *Interp) writeIdentSlow(fr *frame, l *ast.Ident, v *Value) {
	if fr.this != nil {
		if ix, ok := fr.this.Class.fieldIx[l.Name]; ok {
			in.storeField(fr.this, ix, v, l.Pos)
			return
		}
	}
	if fr.class != nil {
		if slot := fr.class.findStatic(l.Name); slot != nil {
			in.storeStatic(slot, v, l.Pos)
			return
		}
	}
	in.bugf(l.Pos, "assignment to unknown variable %s", l.Name)
}

// assignConv is the one kind-checked store conversion of both engines: it
// converts *v in place to the value a slot of kind k and declared type t
// stores. A value of the slot's kind stays as it is, coerceTo's identity, so
// only a kind mismatch pays the call. Every local, field, static and element
// store and every parameter binding converts through it.
func (in *Interp) assignConv(v *Value, k Kind, t *ast.Type, pos token.Pos) {
	if v.K != k {
		*v = in.coerceTo(*v, *t, pos)
	}
}

// --- conversions ---

func zeroValue(t ast.Type) Value {
	if t.Dims > 0 {
		return NullVal()
	}
	switch kindOfType(t) {
	case KInt:
		return IntVal(0)
	case KLong:
		return LongVal(0)
	case KShort:
		return ShortVal(0)
	case KByte:
		return ByteVal(0)
	case KChar:
		return CharVal(0)
	case KBool:
		return BoolVal(false)
	case KFloat:
		return FloatVal(0)
	case KDouble:
		return DoubleVal(0)
	default:
		return NullVal()
	}
}

// coerceTo converts a value to a declared type, charging narrowing and boxing
// costs. It is deliberately lenient about implicit narrowing (the JEPO
// refactorer relies on double→float rewrites remaining executable).
func (in *Interp) coerceTo(v Value, t ast.Type, pos token.Pos) Value {
	// Identity fast paths for the kinds that dominate stores; they skip the
	// kindOfType call below without changing any conversion semantics.
	if t.Dims == 0 {
		switch {
		case v.K == KInt && t.Kind == ast.Int,
			v.K == KDouble && t.Kind == ast.Double,
			v.K == KBool && t.Kind == ast.Boolean,
			v.K == KLong && t.Kind == ast.Long:
			return v
		}
	}
	if t.Dims > 0 {
		if v.K == KArr || v.K == KNull {
			return v
		}
		in.bugf(pos, "cannot assign %v to array type %s", v.K, t)
	}
	target := kindOfType(t)
	if v.K == target {
		return v
	}
	switch target {
	case KInt, KLong, KShort, KByte, KChar:
		if v.K == KBox {
			v = in.unbox(v, pos)
		}
		if !v.K.IsNumeric() {
			in.bugf(pos, "cannot convert %v to %s", v.K, t)
		}
		switch target {
		case KInt:
			return IntVal(v.AsI64())
		case KLong:
			return LongVal(v.AsI64())
		case KShort:
			in.meter.Step(energy.OpArithNarrow, 1)
			return ShortVal(v.AsI64())
		case KByte:
			in.meter.Step(energy.OpArithNarrow, 1)
			return ByteVal(v.AsI64())
		case KChar:
			in.meter.Step(energy.OpArithNarrow, 1)
			return CharVal(v.AsI64())
		}
	case KFloat, KDouble:
		if v.K == KBox {
			v = in.unbox(v, pos)
		}
		if !v.K.IsNumeric() {
			in.bugf(pos, "cannot convert %v to %s", v.K, t)
		}
		if target == KFloat {
			return FloatVal(v.AsF64())
		}
		return DoubleVal(v.AsF64())
	case KBool:
		if v.K == KBox {
			v = in.unbox(v, pos)
		}
		if v.K == KBool {
			return v
		}
		in.bugf(pos, "cannot convert %v to boolean", v.K)
	case KString:
		if v.K == KNull {
			return v
		}
		if v.K == KString {
			return v
		}
		in.bugf(pos, "cannot convert %v to String", v.K)
	case KSB:
		if v.K == KSB || v.K == KNull {
			return v
		}
		in.bugf(pos, "cannot convert %v to StringBuilder", v.K)
	case KBox:
		if v.K == KNull {
			return v
		}
		if v.K == KBox {
			return v
		}
		return in.box(t.Name, v, pos)
	case KRef:
		switch v.K {
		case KRef, KNull, KThrow, KString, KArr, KSB, KBox:
			// Object-typed storage accepts any reference.
			return v
		}
		in.bugf(pos, "cannot convert %v to %s", v.K, t.Name)
	case KVoid:
		return v
	}
	in.bugf(pos, "cannot convert %v to %s", v.K, t)
	return Value{}
}

// box wraps a primitive into a wrapper object, charging the Integer cache
// when applicable — the mechanism behind Table I's wrapper-class row.
func (in *Interp) box(wrapper string, v Value, pos token.Pos) Value {
	pk := wrapperKind(wrapper)
	if pk == KVoid {
		in.bugf(pos, "unknown wrapper class %s", wrapper)
	}
	prim := in.coerceTo(v, typeOfKind(pk), pos)
	if wrapper == "Integer" && prim.I >= -128 && prim.I <= 127 && pk == KInt {
		in.meter.Step(energy.OpBoxCached, 1)
		return Value{K: KBox, R: &Box{Class: wrapper, V: prim, Cached: true}}
	}
	in.meter.Step(energy.OpBoxAlloc, 1)
	return Value{K: KBox, R: &Box{Class: wrapper, V: prim, Base: in.meter.Alloc(16)}}
}

func (in *Interp) unbox(v Value, pos token.Pos) Value {
	if v.K != KBox {
		return v
	}
	in.meter.Step(energy.OpUnbox, 1)
	return v.R.(*Box).V
}

func typeOfKind(k Kind) ast.Type {
	switch k {
	case KInt:
		return ast.Type{Kind: ast.Int}
	case KLong:
		return ast.Type{Kind: ast.Long}
	case KShort:
		return ast.Type{Kind: ast.Short}
	case KByte:
		return ast.Type{Kind: ast.Byte}
	case KChar:
		return ast.Type{Kind: ast.Char}
	case KBool:
		return ast.Type{Kind: ast.Boolean}
	case KFloat:
		return ast.Type{Kind: ast.Float}
	case KDouble:
		return ast.Type{Kind: ast.Double}
	}
	return ast.Type{Kind: ast.Void}
}

func (in *Interp) evalCast(fr *frame, n *ast.Cast) Value {
	return in.castValue(in.eval(fr, n.X), n)
}

// castValue applies a cast to an already-evaluated value — shared by the
// tree-walk and the VM's OpCast.
func (in *Interp) castValue(v Value, n *ast.Cast) Value {
	t := n.Type
	if t.Dims > 0 {
		if v.K == KArr || v.K == KNull {
			return v
		}
		in.throw("ClassCastException", fmt.Sprintf("%v to %s", v.K, t))
	}
	switch kindOfType(t) {
	case KInt, KLong, KShort, KByte, KChar, KFloat, KDouble:
		if v.K == KBox {
			v = in.unbox(v, n.Pos)
		}
		if !v.K.IsNumeric() {
			in.throw("ClassCastException", fmt.Sprintf("%v to %s", v.K, t))
		}
		in.chargeArith(kindOfType(t), token.Plus)
		return in.coerceTo(v, t, n.Pos)
	case KBool:
		if v.K == KBool {
			return v
		}
		in.throw("ClassCastException", fmt.Sprintf("%v to boolean", v.K))
	case KString:
		if v.K == KString || v.K == KNull {
			return v
		}
		in.throw("ClassCastException", fmt.Sprintf("%v to String", v.K))
	case KSB:
		if v.K == KSB || v.K == KNull {
			return v
		}
		in.throw("ClassCastException", fmt.Sprintf("%v to StringBuilder", v.K))
	case KBox:
		if v.K == KBox || v.K == KNull {
			return v
		}
		return in.box(t.Name, v, n.Pos)
	default:
		if v.K == KNull {
			return v
		}
		if v.K == KRef {
			if in.valueInstanceOf(v, t.Name) || t.Name == "Object" {
				return v
			}
			in.throw("ClassCastException",
				fmt.Sprintf("%s to %s", v.R.(*Object).Class.Name, t.Name))
		}
		if v.K == KThrow && IsExceptionClass(t.Name) {
			return v
		}
		if t.Name == "Object" {
			return v
		}
		in.throw("ClassCastException", fmt.Sprintf("%v to %s", v.K, t.Name))
	}
	return Value{}
}

func (in *Interp) valueInstanceOf(v Value, name string) bool {
	switch v.K {
	case KNull:
		return false
	case KString:
		return name == "String" || name == "Object"
	case KSB:
		return name == "StringBuilder" || name == "Object"
	case KArr:
		return name == "Object"
	case KBox:
		return v.R.(*Box).Class == name || name == "Object" || name == "Number"
	case KThrow:
		return v.R.(*Throwable).instanceOf(name) || name == "Object"
	case KRef:
		if name == "Object" {
			return true
		}
		for c := v.R.(*Object).Class; c != nil; c = c.Super {
			if c.Name == name {
				return true
			}
		}
		// Walk declared extends of built-in roots.
		return false
	}
	return false
}

// --- calls ---

func (in *Interp) evalCall(fr *frame, n *ast.Call) Value {
	var recv Value
	if n.Recv != nil {
		recv = in.operand(fr, n.Recv)
	}
	args := in.evalArgs(fr, n.Args)
	v := in.dispatchCall(fr, n, recv, n.Recv != nil, args)
	in.releaseArgs(args)
	return v
}

// dispatchCall resolves and invokes a call site with an already-evaluated
// receiver and arguments — shared by the tree-walk and the VM's OpCall. It
// never releases args: the walker's evalCall does, and the VM passes a
// window of its operand stack.
func (in *Interp) dispatchCall(fr *frame, n *ast.Call, recv Value, hasRecv bool, args []Value) Value {
	// Unqualified call: method of the enclosing class, through the site's
	// monomorphic cache keyed on the frame's dynamic class.
	if !hasRecv {
		sc := &in.siteCache[n.SiteIx-1]
		if sc.class != fr.class {
			in.resolveSelf(sc, fr.class, n, len(args))
		}
		ci, this := in.selfReceiver(fr, n, sc.m)
		return in.invoke(ci, this, sc.m, args)
	}
	switch recv.K {
	case KClassRef:
		cls := recv.R.(string)
		// Load-resolved static dispatch: the site table pins the target
		// when the receiver is a statically-known class name.
		switch ps := &in.prog.sites[n.SiteIx-1]; ps.kind {
		case siteStaticCall:
			if ps.cls == cls {
				return in.invoke(ps.ci, nil, ps.m, args)
			}
		case siteBuiltinStaticCall:
			if ps.cls == cls {
				if v, ok := in.callBuiltinStatic(cls, n.Name, args, n.Pos); ok {
					return v
				}
			}
		}
		if cls == "System.out" {
			if v, ok := in.callBuiltinInstance(recv, n.Name, args, n.Pos); ok {
				return v
			}
			in.bugf(n.Pos, "unknown method System.out.%s", n.Name)
		}
		if ci, ok := in.prog.classes[cls]; ok {
			if m := ci.findMethod(n.Name, len(args)); m != nil {
				if !m.Mods.Has(ast.ModStatic) {
					in.bugf(n.Pos, "instance method %s.%s called statically", cls, n.Name)
				}
				return in.invoke(ci, nil, m, args)
			}
		}
		if v, ok := in.callBuiltinStatic(cls, n.Name, args, n.Pos); ok {
			return v
		}
		in.bugf(n.Pos, "unknown static method %s.%s/%d", cls, n.Name, len(args))
	case KRef:
		obj := recv.R.(*Object)
		sc := &in.siteCache[n.SiteIx-1]
		if sc.class != obj.Class {
			in.resolveVirtual(sc, obj.Class, n, len(args))
		}
		return in.invoke(obj.Class, obj, sc.m, args)
	case KNull:
		in.throw("NullPointerException", "call "+n.Name+" on null")
	default:
		if v, ok := in.callBuiltinInstance(recv, n.Name, args, n.Pos); ok {
			return v
		}
		in.bugf(n.Pos, "no method %s on %v", n.Name, recv.K)
	}
	return Value{}
}

// selfReceiver returns the class and receiver the method an unqualified
// call resolved to runs with: the frame's class and no receiver for a static
// method, the frame's receiver for an instance method.
func (in *Interp) selfReceiver(fr *frame, n *ast.Call, m *ast.Method) (*classInfo, *Object) {
	if m.Mods.Has(ast.ModStatic) {
		return fr.class, nil
	}
	if fr.this == nil {
		in.bugf(n.Pos, "instance method %s called from static context", n.Name)
	}
	return fr.this.Class, fr.this
}

// resolveSelf refills an unqualified call site's cache entry for frame
// class ci. It and its siblings resolveVirtual and resolveField are the one
// copy of each run-time lookup and its error, for both engines: the walker's
// dispatchCall, selectFrom and writeLValue call them on a cache miss, and so
// do the VM's call and field lanes.
func (in *Interp) resolveSelf(sc *siteState, ci *classInfo, n *ast.Call, argc int) {
	m := ci.findMethod(n.Name, argc)
	if m == nil {
		in.bugf(n.Pos, "unknown method %s/%d in class %s", n.Name, argc, ci.Name)
	}
	sc.class, sc.m = ci, m
}

// resolveVirtual refills an instance call site's cache entry for receiver
// class ci.
func (in *Interp) resolveVirtual(sc *siteState, ci *classInfo, n *ast.Call, argc int) {
	m := ci.findMethod(n.Name, argc)
	if m == nil {
		in.bugf(n.Pos, "class %s has no method %s/%d", ci.Name, n.Name, argc)
	}
	sc.class, sc.m = ci, m
}

// resolveField refills a field select site's cache entry for receiver class
// ci; reads and stores share it.
func (in *Interp) resolveField(sc *siteState, ci *classInfo, n *ast.Select) {
	ix, ok := ci.fieldIx[n.Name]
	if !ok {
		in.bugf(n.Pos, "class %s has no field %s", ci.Name, n.Name)
	}
	sc.class, sc.ix = ci, int32(ix)
}

// evalArgs evaluates call arguments into a pooled slice; the caller releases
// it once the callee has copied the values out.
func (in *Interp) evalArgs(fr *frame, exprs []ast.Expr) []Value {
	args := in.grabArgs(len(exprs))
	for i, a := range exprs {
		if id, ok := a.(*ast.Ident); ok {
			in.step()
			if c := fr.localCell(id); c != nil {
				in.meter.Step(energy.OpLocal, 1)
				args[i] = c.v
				continue
			}
			args[i] = in.evalIdent(fr, id)
			continue
		}
		args[i] = in.operand(fr, a)
	}
	return args
}
