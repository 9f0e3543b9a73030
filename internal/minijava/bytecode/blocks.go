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
			// loads; the guards stay in the handlers (out-of-range index,
			// static context) and deopt to the full identifier ladder.
			if id, ok := ins.Node.(*ast.Ident); ok {
				switch {
				case id.RKind == ast.ResStaticRef && id.RIx >= 0:
					ins.Op, ins.A = OpQLoadStatic, id.RIx
				case id.RKind == ast.ResField && id.RIx >= 0:
					ins.Op, ins.A = OpQLoadField, id.RIx
				case id.RKind == ast.ResClass && id.RIx >= 0:
					ins.Op, ins.A = OpQPushV, id.RIx
				}
			}
		case OpStoreIdent, OpStoreIdentX:
			// Same pins for the store side; the X forms keep the value.
			if id, ok := ins.Node.(*ast.Ident); ok {
				x := ins.Op == OpStoreIdentX
				switch {
				case id.RKind == ast.ResStaticRef && id.RIx >= 0:
					ins.Op, ins.A = OpQStoreStatic, id.RIx
					if x {
						ins.Op = OpQStoreStaticX
					}
				case id.RKind == ast.ResField && id.RIx >= 0:
					ins.Op, ins.A = OpQStoreField, id.RIx
					if x {
						ins.Op = OpQStoreFieldX
					}
				}
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
