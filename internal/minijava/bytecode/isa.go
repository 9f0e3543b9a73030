// Package bytecode lowers resolved mini-Java methods to a flat instruction
// stream — the reproduction's analogue of the class-file bytecode JEPO
// instruments with Javassist. The compiler consumes the annotations the
// interpreter's load-time resolver leaves on the AST (frame slots, resolution
// kinds, call-site indices) and produces one Func per method; the VM dispatch
// loop itself lives in internal/minijava/interp so that every non-trivial
// operation (builtin calls, coercions, boxing, object construction) reuses
// the tree-walker's own helpers and therefore charges the energy meter the
// same op counts and the same memory accesses in the same order.
//
// Instructions keep a reference to the AST node they were lowered from.
// The node is the slow path: when a frame slot is not live (the dialect
// declares variables at execution time) or an operation needs the dynamic
// resolution ladder, the VM hands the node back to the walker's helper and
// gets bit-identical semantics by construction.
package bytecode

import (
	"jepo/internal/energy"
	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/token"
)

// Op is a VM opcode.
type Op uint8

const (
	// OpNop does nothing (also the zero value, so an uninitialised
	// instruction is harmless rather than silently meaning something).
	OpNop Op = iota

	// OpStep charges only its Steps count against the op budget. Emitted
	// where the walker steps a node that produces no instruction of its own
	// and the following instruction is a jump target (loop heads).
	OpStep

	// OpCharge charges the meter: energy op A, count B.
	OpCharge

	// OpConst pushes constant pool entry A with the literal's charge.
	OpConst

	// OpPushBool pushes a raw boolean (A != 0) with no charge — the
	// short-circuit result value the walker materialises for free.
	OpPushBool

	// OpPop discards the top of stack.
	OpPop

	// OpLoadThis pushes the receiver.
	OpLoadThis

	// OpLoadLocal pushes frame slot A; Node (*ast.Ident) is the fallback
	// when the slot is not live.
	OpLoadLocal

	// OpLoadIdent resolves Node (*ast.Ident) through the walker's full
	// identifier ladder (fields, statics, class refs).
	OpLoadIdent

	// OpLoadSelect pops the receiver and reads field Node (*ast.Select).
	OpLoadSelect

	// OpLoadIndex pops index and array and pushes the element
	// (Node *ast.Index).
	OpLoadIndex

	// OpLoadIndexL is OpLoadIndex with the index read from frame slot A
	// instead of the stack — the dominant a[i] shape. The local read is
	// charged exactly where the stand-alone load would have been.
	OpLoadIndexL

	// OpEval evaluates Node with the tree-walker and pushes the result —
	// the universal escape hatch for expression forms without a dedicated
	// lowering. Charges and steps happen inside the walker.
	OpEval

	// OpStoreLocal pops a value into frame slot A (Node *ast.Ident holds
	// the assignment target). Every store form below pops its value: an
	// assignment whose value is used lowers to OpEval, and the walker's
	// evalAssign computes that value in the one place it is computed.
	OpStoreLocal

	// OpStoreIdent pops a value into a non-local identifier target.
	OpStoreIdent

	// OpStoreSelect pops a value and stores into field Node (*ast.Select);
	// the receiver expression is evaluated by the walker inside the store,
	// after the RHS — exactly the tree-walker's assignment order.
	OpStoreSelect

	// OpStoreIndex pops index, array and value (pushed in value, array,
	// index order) and stores the element (Node *ast.Index).
	OpStoreIndex

	// OpStoreIndexL is the store counterpart of OpLoadIndexL: index from
	// frame slot A, array and value popped.
	OpStoreIndexL

	// OpIncLocal is ++/-- on a local in statement position: slot A, delta
	// B (±1), Node (*ast.Unary). An increment whose value is used lowers to
	// OpEval.
	OpIncLocal

	// OpBinary pops y then x and applies Tok (Node *ast.Binary for
	// position). OpBinLL reads slots A and B, OpBinLC slot A and constant
	// B, charging exactly the walker's operand sequence.
	OpBinary
	OpBinLL
	OpBinLC

	// OpNeg / OpNot are unary minus and logical not (Node *ast.Unary).
	OpNeg
	OpNot

	// OpJmp transfers to pc+A. Jumps carry the Steps of the statement that
	// produced them (break/continue).
	OpJmp

	// OpJmpBranch charges one OpBranch against the meter and transfers to
	// pc+A — the fused loop back-edge. The walker charges a branch at the
	// top of every While/For iteration; the compiler hoists the first
	// iteration's charge above the loop head and folds the remaining ones
	// into the back-jump, saving one dispatch per iteration.
	OpJmpBranch

	// OpJmpFalse / OpJmpTrue pop a condition (unboxing if needed, with the
	// unbox charge) and jump to pc+A when it is false/true. Node is the
	// condition expression, for error positions.
	OpJmpFalse
	OpJmpTrue

	// OpJmpCmp* fuse a comparison superinstruction (OpBinLL / OpBinLC /
	// OpBinary with a comparison operator) with the conditional jump that
	// consumes its result: A = jump offset, B = second operand (slot or
	// constant index), C = first operand slot. The handlers issue exactly
	// the unfused charge sequence; a comparison always produces a
	// normalised boolean, so the jump's unbox/type checks are unreachable.
	OpJmpCmpLLFalse
	OpJmpCmpLLTrue
	OpJmpCmpLCFalse
	OpJmpCmpLCTrue
	OpJmpCmpFalse
	OpJmpCmpTrue

	// OpToBool pops a value, applies the walker's condition coercion and
	// pushes the resulting boolean — the tail of a short-circuit chain.
	OpToBool

	// OpCall pops B (0/1) receiver and A arguments (receiver below the
	// arguments) and dispatches Node (*ast.Call).
	OpCall

	// OpNew pops A arguments and constructs Node (*ast.New).
	OpNew

	// OpLenCheck normalises one array-dimension length on the stack:
	// unbox (charged), integral check, NegativeArraySizeException.
	OpLenCheck

	// OpNewArray pops A checked lengths and allocates Node (*ast.NewArray).
	OpNewArray

	// OpLocalDecl pops an initialiser into slot A (Node *ast.LocalVar);
	// OpLocalZero declares slot A with the type's zero value; OpLocalDecl
	// with B=1 delegates the initialiser to the walker (array literals).
	OpLocalDecl
	OpLocalZero

	// OpCast / OpInstanceOf pop a value and apply Node (*ast.Cast /
	// *ast.InstanceOf).
	OpCast
	OpInstanceOf

	// OpThrow pops a throwable and raises it.
	OpThrow

	// OpSwitchTag unboxes the switch tag in place (tag stays on the stack
	// through the comparison chain). OpCaseCmp pops one case value,
	// compares it to the tag below and, on a match, pops the tag and jumps
	// to pc+A. OpSwitchEnd pops the tag and jumps to pc+A (default arm or
	// end). Node is the *ast.Switch.
	OpSwitchTag
	OpCaseCmp
	OpSwitchEnd

	// OpRet pops the return value and leaves the frame; OpRetVoid leaves
	// with no value.
	OpRet
	OpRetVoid

	// --- compile-time quickening (Finalize) ---

	// OpQLoadStatic pushes the load-resolved static slot statRefs[A]
	// (OpLoadIdent specialized on ast.ResStaticRef). Guard-and-deopt: an
	// out-of-range index falls back to the walker's identifier ladder.
	OpQLoadStatic

	// OpQStoreStatic is the store counterpart: OpStoreIdent specialized on
	// the same resolver pin, storing through the walker's one static store
	// and deopting to writeLValue on a guard miss.
	OpQStoreStatic

	// OpQPushV pushes the program's class reference classRefs[A]
	// (OpLoadIdent specialized on ast.ResClass), charging nothing, exactly
	// like the walker's ResClass lane; an out-of-range index falls back to
	// the identifier ladder.
	OpQPushV

	// --- runtime quickening (per-Interp warm code copies) ---
	//
	// The opcodes below never appear in a shared Program: the VM installs
	// them by patching its private copy of the code after first execution.
	// Every quick form re-checks its guard and deopts to the generic opcode —
	// which recomputes from scratch with the walker's own helpers — on a
	// miss. The call and select forms cache nothing of their own: C is the
	// site's index (its SiteIx-1, set by Finalize) into the interpreter's
	// per-instance site cache, the one the walker resolves through, and a
	// cache miss refills it through the walker's resolver for that lookup.
	// Only these three shapes have a quick form; every other call and select
	// runs the generic handler, which resolves through the site table.

	// OpQGetField is OpLoadSelect specialized to an object receiver (guard:
	// the receiver is an object; the cache keys the field slot on its class).
	OpQGetField

	// OpQCallSelf / OpQCallVirtual are OpCall specialized to an unqualified
	// call (cache key: the frame's class) and an instance call on an object
	// (guard: the receiver is an object; cache key: its class). Like every
	// call, they pass the arguments as a window of the VM's operand stack:
	// the callee copies its parameters into its own frame before executing.
	OpQCallSelf
	OpQCallVirtual

	// OpQBinIntLL / OpQBinIntLC / OpQBinInt are the binary forms specialized
	// to int operands with the arithmetic switch inlined in the handler
	// (deopting on a non-int operand or non-int operator).
	OpQBinIntLL
	OpQBinIntLC
	OpQBinInt

	numOps
)

var opNames = [...]string{
	OpNop:           "nop",
	OpStep:          "step",
	OpCharge:        "charge",
	OpConst:         "const",
	OpPushBool:      "pushbool",
	OpPop:           "pop",
	OpLoadThis:      "this",
	OpLoadLocal:     "load",
	OpLoadIdent:     "load.dyn",
	OpLoadSelect:    "getfield",
	OpLoadIndex:     "aload",
	OpLoadIndexL:    "aload.l",
	OpEval:          "eval",
	OpStoreLocal:    "store",
	OpStoreIdent:    "store.dyn",
	OpStoreSelect:   "putfield",
	OpStoreIndex:    "astore",
	OpStoreIndexL:   "astore.l",
	OpIncLocal:      "inc",
	OpBinary:        "bin",
	OpBinLL:         "bin.ll",
	OpBinLC:         "bin.lc",
	OpNeg:           "neg",
	OpNot:           "not",
	OpJmp:           "jmp",
	OpJmpBranch:     "jmp.br",
	OpJmpFalse:      "jmpf",
	OpJmpTrue:       "jmpt",
	OpJmpCmpLLFalse: "jmpf.ll",
	OpJmpCmpLLTrue:  "jmpt.ll",
	OpJmpCmpLCFalse: "jmpf.lc",
	OpJmpCmpLCTrue:  "jmpt.lc",
	OpJmpCmpFalse:   "jmpf.bin",
	OpJmpCmpTrue:    "jmpt.bin",
	OpToBool:        "tobool",
	OpCall:          "call",
	OpNew:           "new",
	OpLenCheck:      "lencheck",
	OpNewArray:      "newarray",
	OpLocalDecl:     "decl",
	OpLocalZero:     "decl.zero",
	OpCast:          "cast",
	OpInstanceOf:    "instanceof",
	OpThrow:         "throw",
	OpSwitchTag:     "swtag",
	OpCaseCmp:       "case",
	OpSwitchEnd:     "swend",
	OpRet:           "ret",
	OpRetVoid:       "ret.void",
	OpQLoadStatic:   "getstatic",
	OpQStoreStatic:  "putstatic",
	OpQPushV:        "qpush",
	OpQGetField:     "qgetfield",
	OpQCallSelf:     "qcall.self",
	OpQCallVirtual:  "qcall.virt",
	OpQBinIntLL:     "qbin.ll",
	OpQBinIntLC:     "qbin.lc",
	OpQBinInt:       "qbin",
}

func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return "op?"
}

// Instr is one VM instruction. Steps is the number of walker step() counts
// (AST nodes) this instruction accounts for against the op budget; the
// compiler folds step-only prefixes into the next instruction so totals stay
// identical to the tree-walk while the dispatch count stays low.
type Instr struct {
	Op      Op
	Steps   uint8
	Tok     token.Kind // operator for OpBinary/OpBinLL/OpBinLC and fusions
	A, B, C int32
	Node    ast.Node // originating node: slow paths, charges and positions
}

// Func is one compiled method body.
type Func struct {
	Name     string // Class.method/arity, for the disassembler
	Method   *ast.Method
	Code     []Instr
	Consts   []*ast.Literal
	NSlots   int
	MaxStack int

	// Blocks are the basic-block leader pcs of Code, ascending — pc 0, jump
	// targets, and fall-throughs after jumps and terminators. The
	// disassembler annotates them.
	Blocks []int32
}

// LiteralCharge reports the meter charge evaluating a literal issues — the
// one source of that charge for both engines: the walker's chargeLiteral and
// the interpreter's constant pool pre-evaluation, which OpConst charges
// from. An unknown literal kind charges nothing.
func LiteralCharge(n *ast.Literal) (energy.Op, bool) {
	switch n.Kind {
	case ast.LitInt, ast.LitLong, ast.LitChar, ast.LitString, ast.LitBool, ast.LitNull:
		return energy.OpLocal, true
	case ast.LitFloat, ast.LitDouble:
		if n.Sci {
			return energy.OpConstSci, true
		}
		return energy.OpConstDecimal, true
	}
	return 0, false
}
