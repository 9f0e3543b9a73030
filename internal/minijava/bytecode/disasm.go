package bytecode

import (
	"fmt"
	"strings"

	"jepo/internal/energy"
	"jepo/internal/minijava/ast"
)

// Disasm renders one compiled function as deterministic text: one line per
// instruction with pc, folded step count, mnemonic, operands and a source
// comment, plus a header line per basic block. Jump targets are shown as
// absolute pcs. The output is stable across runs (no pointers, no map
// iteration), so it can be pinned by a golden file.
func (f *Func) Disasm() string { return f.DisasmCode(f.Code) }

// DisasmCode renders an instruction stream against this function's metadata.
// The stream must be positionally identical to f.Code (runtime quickening
// patches opcodes in place, so a warm per-instance copy qualifies); block
// annotations and jump targets carry over unchanged.
func (f *Func) DisasmCode(code []Instr) string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s  slots=%d stack=%d\n", f.Name, f.NSlots, f.MaxStack)
	block := 0
	for pc := range code {
		ins := &code[pc]
		for block < len(f.Blocks) && int(f.Blocks[block]) == pc {
			fmt.Fprintf(&b, "  B%d:\n", block)
			block++
		}
		steps := ""
		if ins.Steps > 0 {
			steps = fmt.Sprintf("+%d", ins.Steps)
		}
		operands, comment := f.operands(pc, ins)
		line := fmt.Sprintf("%4d %3s  %-11s %s", pc, steps, ins.Op, operands)
		if comment != "" {
			line = fmt.Sprintf("%-44s ; %s", line, comment)
		}
		b.WriteString(strings.TrimRight(line, " "))
		b.WriteByte('\n')
	}
	return b.String()
}

// operands renders the operand column and the source comment for one
// instruction.
func (f *Func) operands(pc int, ins *Instr) (string, string) {
	target := func() string { return fmt.Sprintf("->%d", pc+int(ins.A)) }
	switch ins.Op {
	case OpCharge:
		return fmt.Sprintf("%v x%d", energy.Op(ins.A), ins.B), ""
	case OpConst:
		return fmt.Sprintf("c%d", ins.A), f.constText(ins.A)
	case OpQLoadStatic, OpQStoreStatic, OpQStoreStaticX:
		return fmt.Sprintf("g%d", ins.A), nodeText(ins.Node)
	case OpQLoadField, OpQStoreField, OpQStoreFieldX:
		return fmt.Sprintf("f%d", ins.A), nodeText(ins.Node)
	case OpQPushV:
		return fmt.Sprintf("ic%d", ins.C), nodeText(ins.Node)
	case OpQGetField, OpQGetStatic, OpQGetConst, OpQArrLen:
		return fmt.Sprintf("ic%d", ins.C), nodeText(ins.Node)
	case OpQCallSelf, OpQCallVirtual, OpQCallStatic, OpQCallBuiltin:
		return fmt.Sprintf("argc=%d ic%d", ins.A, ins.C), nodeText(ins.Node)
	case OpQCallInstance:
		return fmt.Sprintf("argc=%d", ins.A), nodeText(ins.Node)
	case OpQBinIntLL:
		return fmt.Sprintf("%v s%d s%d", ins.Tok, ins.A, ins.B), nodeText(ins.Node)
	case OpQBinIntLC:
		return fmt.Sprintf("%v s%d c%d", ins.Tok, ins.A, ins.B), nodeText(ins.Node)
	case OpQBinInt:
		return ins.Tok.String(), ""
	case OpPushBool:
		if ins.A != 0 {
			return "true", ""
		}
		return "false", ""
	case OpLoadLocal, OpStoreLocal, OpStoreLocalX, OpLocalZero:
		return fmt.Sprintf("s%d", ins.A), nodeText(ins.Node)
	case OpLocalDecl:
		if ins.B != 0 {
			return fmt.Sprintf("s%d arraylit", ins.A), nodeText(ins.Node)
		}
		return fmt.Sprintf("s%d", ins.A), nodeText(ins.Node)
	case OpIncLocal, OpIncLocalX:
		sign := "+"
		if ins.B < 0 {
			sign = "-"
		}
		return fmt.Sprintf("s%d %s1", ins.A, sign), nodeText(ins.Node)
	case OpLoadIdent, OpStoreIdent, OpStoreIdentX:
		return "", nodeText(ins.Node)
	case OpLoadSelect, OpStoreSelect, OpStoreSelectX:
		return "", nodeText(ins.Node)
	case OpBinary:
		return ins.Tok.String(), ""
	case OpBinLL:
		return fmt.Sprintf("%v s%d s%d", ins.Tok, ins.A, ins.B), nodeText(ins.Node)
	case OpBinLC:
		return fmt.Sprintf("%v s%d c%d", ins.Tok, ins.A, ins.B), nodeText(ins.Node)
	case OpLoadIndexL, OpStoreIndexL, OpStoreIndexLX:
		return fmt.Sprintf("s%d", ins.A), nodeText(ins.Node)
	case OpJmp, OpJmpBranch, OpJmpFalse, OpJmpTrue, OpCaseCmp, OpSwitchEnd:
		return target(), ""
	case OpJmpCmpLLFalse, OpJmpCmpLLTrue:
		return fmt.Sprintf("%v s%d s%d %s", ins.Tok, ins.C, ins.B, target()), nodeText(ins.Node)
	case OpJmpCmpLCFalse, OpJmpCmpLCTrue:
		return fmt.Sprintf("%v s%d c%d %s", ins.Tok, ins.C, ins.B, target()), nodeText(ins.Node)
	case OpJmpCmpFalse, OpJmpCmpTrue:
		return fmt.Sprintf("%v %s", ins.Tok, target()), ""
	case OpCall:
		return fmt.Sprintf("argc=%d recv=%d", ins.A, ins.B), nodeText(ins.Node)
	case OpNew:
		return fmt.Sprintf("argc=%d", ins.A), nodeText(ins.Node)
	case OpNewArray:
		return fmt.Sprintf("dims=%d", ins.A), ""
	case OpEval, OpAssign, OpAssignX, OpCast, OpInstanceOf:
		return "", nodeText(ins.Node)
	}
	return "", ""
}

func (f *Func) constText(ix int32) string {
	if int(ix) >= len(f.Consts) {
		return ""
	}
	return litText(f.Consts[ix])
}

func litText(lit *ast.Literal) string {
	if lit.Raw != "" {
		return lit.Raw
	}
	switch lit.Kind {
	case ast.LitString:
		return "\"" + lit.S + "\""
	case ast.LitBool:
		if lit.I != 0 {
			return "true"
		}
		return "false"
	case ast.LitNull:
		return "null"
	case ast.LitFloat, ast.LitDouble:
		return fmt.Sprintf("%g", lit.D)
	default:
		return fmt.Sprintf("%d", lit.I)
	}
}

// nodeText gives a short source hint for the comment column.
func nodeText(n ast.Node) string {
	switch x := n.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.Select:
		return "." + x.Name
	case *ast.Call:
		if x.Recv != nil {
			if id, ok := x.Recv.(*ast.Ident); ok {
				return id.Name + "." + x.Name
			}
			return "." + x.Name
		}
		return x.Name
	case *ast.New:
		return x.Name
	case *ast.Literal:
		return litText(x)
	case *ast.Unary:
		return x.Op.String() + nodeText(x.X)
	case *ast.Binary:
		return nodeText(x.X) + " " + x.Op.String() + " " + nodeText(x.Y)
	case *ast.LocalVar:
		return x.Name
	case *ast.Cast:
		return "(" + x.Type.String() + ")"
	case *ast.InstanceOf:
		return "instanceof " + x.Name
	case *ast.Assign:
		return nodeText(x.LHS) + " " + x.Op.String() + " ..."
	case *ast.Index:
		return nodeText(x.X) + "[...]"
	}
	return ""
}
