package interp

import (
	"fmt"
	"strings"

	"jepo/internal/energy"
	"jepo/internal/instrument"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/bytecode"
)

// Engine selects how interp.New executes methods.
type Engine uint8

const (
	// EngineVM (the default) runs compiled bytecode, falling back to the
	// tree-walker per method for constructs without a lowering (try/catch).
	// Both engines charge the energy meter identically; the VM only cuts the
	// dispatch overhead.
	EngineVM Engine = iota
	// EngineAST forces the original tree-walking evaluator everywhere.
	EngineAST
)

func (e Engine) String() string {
	if e == EngineAST {
		return "ast"
	}
	return "vm"
}

// ParseEngine parses an -engine flag value.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "vm":
		return EngineVM, nil
	case "ast":
		return EngineAST, nil
	}
	return 0, fmt.Errorf("interp: unknown engine %q (want vm or ast)", s)
}

// WithEngine selects the execution engine (default EngineVM).
func WithEngine(e Engine) Option { return func(in *Interp) { in.engine = e } }

// compiledFn is one entry of the program's compiled-function table: the
// instruction stream plus the constant pool pre-evaluated into Values, so
// OpConst charges one Step and copies a struct instead of re-dispatching on
// the literal kind per execution.
type compiledFn struct {
	fn     *bytecode.Func
	consts []constVal
	ix     int32 // index in Program.funcs, for the per-Interp warm code table
}

// constVal is one pre-evaluated constant-pool entry. Splitting evalLiteral
// into its (compile-time-constant) charge and its immutable Value is exact:
// every literal kind charges one Step of one op and yields the same Value on
// every evaluation.
type constVal struct {
	v      Value
	op     energy.Op
	charge bool
}

// makeConstVals pre-evaluates a constant pool, mirroring evalLiteral case by
// case. The charge half comes from bytecode.LiteralCharge — the same source
// Finalize folds const charges from, so the VM, the walker and the block
// aggregator can never disagree on what evaluating a literal costs.
func makeConstVals(lits []*ast.Literal) []constVal {
	out := make([]constVal, len(lits))
	for i, n := range lits {
		var c constVal
		c.op, c.charge = bytecode.LiteralCharge(n)
		switch n.Kind {
		case ast.LitInt:
			c.v = IntVal(n.I)
		case ast.LitLong:
			c.v = LongVal(n.I)
		case ast.LitFloat:
			c.v = FloatVal(n.D)
		case ast.LitDouble:
			c.v = DoubleVal(n.D)
		case ast.LitChar:
			c.v = CharVal(n.I)
		case ast.LitString:
			c.v = StringVal(n.S)
		case ast.LitBool:
			c.v = BoolVal(n.I != 0)
		case ast.LitNull:
			c.v = NullVal()
		}
		out[i] = c
	}
	return out
}

// compileProgram lowers every method body to bytecode, in the order Load
// numbered them (class load order, then declaration order). It runs once per
// Program, under Program.compile, and only reads the AST. Methods the
// compiler cannot lower keep a nil entry and run on the tree-walker. Bodies
// carrying the AST-level probe pattern are compiled from their inner block
// with probe opcodes spliced in — the bytecode instrumentation mode.
func compileProgram(p *Program) {
	for _, name := range p.order {
		ci := p.classes[name]
		for _, m := range ci.Decl.Methods {
			if m.Body == nil {
				continue
			}
			var fn *bytecode.Func
			if inner, label, ok := instrument.BytecodeBody(m); ok {
				if fn = bytecode.Compile(ci.Name, m, inner); fn != nil {
					instrument.InjectBytecode(fn, label)
				}
			} else {
				fn = bytecode.Compile(ci.Name, m, nil)
			}
			cf := compiledFn{ix: m.CIx - 1}
			if fn != nil {
				// Block charge pre-aggregation and compile-time
				// quickening, after probe splicing so probe opcodes bound
				// the charge runs.
				bytecode.Finalize(fn)
				fn.BindCosts(&p.boundCosts)
				cf.fn, cf.consts = fn, makeConstVals(fn.Consts)
			}
			p.funcs = append(p.funcs, cf)
		}
	}
}

// Disasm renders the whole program's compiled form — the `jperf disasm`
// backend. Methods without a lowering are listed with a tree-walker marker.
func (p *Program) Disasm() string {
	p.compile()
	return p.disasm(func(cf *compiledFn) string { return cf.fn.Disasm() })
}

// disasm walks the program's methods in deterministic order, rendering each
// compiled one through render (shared by the cold and warm disassemblies).
func (p *Program) disasm(render func(*compiledFn) string) string {
	var b strings.Builder
	for _, name := range p.order {
		ci := p.classes[name]
		for _, m := range ci.Decl.Methods {
			if m.Body == nil {
				continue
			}
			if ix := int(m.CIx) - 1; ix >= 0 && ix < len(p.funcs) && p.funcs[ix].fn != nil {
				b.WriteString(render(&p.funcs[ix]))
			} else {
				fmt.Fprintf(&b, "func %s.%s/%d  (tree-walker)\n", name, m.Name, len(m.Params))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}
