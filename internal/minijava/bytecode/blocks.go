package bytecode

import "jepo/internal/minijava/ast"

// This file is the post-compilation pass: basic-block partitioning and
// compile-time quickening. Finalize runs after compilation and patches
// Func.Code in place of the stream the compiler emitted.
//
// The pass is exact because it moves nothing:
//
//   - Every rewrite replaces one instruction with one instruction, so the
//     stream keeps its length and every jump offset stays valid.
//   - No rewrite merges, moves or drops a charge. Each charge is issued by
//     the instruction that incurs it, in the order the compiler emitted it,
//     so the meter sees the tree-walker's exact call sequence.
//   - Block leaders are recorded for the disassembler only; the VM runs
//     straight through them.

// isJump reports whether op transfers control via the A offset.
func isJump(op Op) bool {
	switch op {
	case OpJmp, OpJmpBranch, OpJmpFalse, OpJmpTrue,
		OpJmpCmpLLFalse, OpJmpCmpLLTrue, OpJmpCmpLCFalse, OpJmpCmpLCTrue,
		OpJmpCmpFalse, OpJmpCmpTrue, OpCaseCmp, OpSwitchEnd:
		return true
	}
	return false
}

// Finalize rewrites a compiled function into the form the VM runs: leaders
// are recorded, load-resolved identifier accesses are quickened at compile
// time, and call and select instructions carry their site's cache index.
func Finalize(fn *Func) {
	code := fn.Code
	n := len(code)

	// Basic-block leaders: entry, jump targets, and fall-throughs after
	// jumps and terminators.
	leader := make([]bool, n+1)
	leader[0] = true
	for pc := range code {
		ins := &code[pc]
		switch {
		case isJump(ins.Op):
			leader[pc+int(ins.A)] = true
			leader[pc+1] = true
		case ins.Op == OpRet || ins.Op == OpRetVoid || ins.Op == OpThrow:
			leader[pc+1] = true
		}
	}
	var blocks []int32
	for pc := 0; pc < n; pc++ {
		if leader[pc] {
			blocks = append(blocks, int32(pc))
		}
	}

	for pc := range code {
		ins := &code[pc]
		switch ins.Op {
		case OpLoadIdent:
			// Compile-time quickening: the resolver already pinned these
			// loads; the guards stay in the handlers (out-of-range index)
			// and deopt to the full identifier ladder.
			if id, ok := ins.Node.(*ast.Ident); ok && id.RIx >= 0 {
				switch id.RKind {
				case ast.ResStaticRef:
					ins.Op, ins.A = OpQLoadStatic, id.RIx
				case ast.ResClass:
					ins.Op, ins.A = OpQPushV, id.RIx
				}
			}
		case OpStoreIdent:
			if id, ok := ins.Node.(*ast.Ident); ok && id.RIx >= 0 && id.RKind == ast.ResStaticRef {
				ins.Op, ins.A = OpQStoreStatic, id.RIx
			}
		case OpCall:
			// The site cache index the call and select quick forms read.
			if n, ok := ins.Node.(*ast.Call); ok {
				ins.C = n.SiteIx - 1
			}
		case OpLoadSelect:
			if n, ok := ins.Node.(*ast.Select); ok {
				ins.C = n.SiteIx - 1
			}
		}
	}

	fn.Blocks = blocks
}
