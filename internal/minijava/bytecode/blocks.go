package bytecode

import (
	"jepo/internal/energy"
	"jepo/internal/minijava/ast"
)

// This file is the post-compilation pass: basic-block partitioning, block
// charge pre-aggregation and compile-time quickening. Finalize runs after
// probe injection (probes are block boundaries — the profiler snapshots the
// meter at them, so no charge may move across one) and rewrites Func.Code in
// place of the stream the compiler emitted.
//
// The aggregation is exact by construction, not by approximation:
//
//   - Only maximal runs of provably non-throwing, statically-known
//     instructions are folded (OpNop, OpStep, OpCharge, OpConst, OpPushBool).
//     Nothing in a run can observe the meter or the op counter mid-run, so
//     charging the whole run on entry is indistinguishable from charging it
//     instruction by instruction.
//   - A run never contains a basic-block leader after its first instruction:
//     control can only enter at the OpRunCharge, never into the middle of an
//     already-charged region.
//   - The recorded charges are one entry per original Step call, in original
//     order. They are replayed, not summed: Joules accumulate in float64 and
//     float addition is not associative.
//   - The summed step count is checked against the op budget once per run,
//     the same granularity class as the compiler's existing folding of
//     step-only prefixes into Instr.Steps.

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

// runFoldable reports whether an instruction may join a charge run: it must
// be unable to throw, unable to observe the meter or op counter, and its
// charges must be known at compile time.
func runFoldable(ins *Instr) bool {
	switch ins.Op {
	case OpNop, OpStep, OpCharge, OpConst, OpPushBool:
		return true
	}
	return false
}

// Finalize rewrites a compiled (and probe-injected) function into the form
// the VM runs: leaders are computed, charge runs are folded into
// OpRunCharge, load-resolved identifier reads are quickened at compile time,
// jump offsets are remapped onto the shorter stream, and inline-cache slots
// are numbered.
func Finalize(fn *Func) {
	code := fn.Code
	n := len(code)

	// Basic-block leaders: entry, jump targets, fall-throughs after jumps
	// and terminators, and probe opcodes (measurement seams).
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
		case ins.Op == OpProbeEnter || ins.Op == OpProbeExit:
			leader[pc] = true
			leader[pc+1] = true
		}
	}

	newCode := make([]Instr, 0, n)
	oldOf := make([]int, 0, n) // old pc of each new instruction
	remap := make([]int32, n+1)
	var runs []ChargeRun
	pc := 0
	for pc < n {
		// Maximal foldable run starting here, stopped at block leaders.
		end := pc
		for end < n && runFoldable(&code[end]) && (end == pc || !leader[end]) {
			end++
		}
		nonPush := 0
		for i := pc; i < end; i++ {
			switch code[i].Op {
			case OpNop, OpStep, OpCharge:
				nonPush++
			}
		}
		if end-pc >= 2 && nonPush >= 1 {
			// Jump targets only ever point at run starts (interior leaders
			// break runs), so remapping every folded pc to the OpRunCharge
			// is total.
			for i := pc; i < end; i++ {
				remap[i] = int32(len(newCode))
			}
			var run ChargeRun
			for i := pc; i < end; i++ {
				ins := &code[i]
				run.Steps += int32(ins.Steps)
				switch ins.Op {
				case OpCharge:
					run.Charges = append(run.Charges, energy.Charge{Op: energy.Op(ins.A), N: ins.B})
				case OpConst:
					if op, ok := LiteralCharge(fn.Consts[ins.A]); ok {
						run.Charges = append(run.Charges, energy.Charge{Op: op, N: 1})
					}
				}
			}
			newCode = append(newCode, Instr{Op: OpRunCharge, A: int32(len(runs))})
			oldOf = append(oldOf, pc)
			runs = append(runs, run)
			// The pushes survive, charge-free and step-free, in original
			// order. Order relative to the folded charges is unobservable:
			// pushes never touch the meter.
			for i := pc; i < end; i++ {
				ins := &code[i]
				switch ins.Op {
				case OpConst:
					newCode = append(newCode, Instr{Op: OpQConst, A: ins.A, Node: ins.Node})
					oldOf = append(oldOf, i)
				case OpPushBool:
					newCode = append(newCode, Instr{Op: OpPushBool, A: ins.A, Node: ins.Node})
					oldOf = append(oldOf, i)
				}
			}
			pc = end
			continue
		}
		ins := code[pc]
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
		}
		remap[pc] = int32(len(newCode))
		newCode = append(newCode, ins)
		oldOf = append(oldOf, pc)
		pc++
	}
	remap[n] = int32(len(newCode))

	// Retarget jumps through the old→new pc map.
	for i := range newCode {
		ins := &newCode[i]
		if isJump(ins.Op) {
			ins.A = remap[oldOf[i]+int(ins.A)] - int32(i)
		}
	}

	// Record block leaders in new coordinates for the disassembler.
	var blocks []int32
	last := int32(-1)
	for old := 0; old < n; old++ {
		if leader[old] {
			if np := remap[old]; np != last {
				blocks = append(blocks, np)
				last = np
			}
		}
	}

	// Number the inline-cache slots runtime quickening patches through.
	var ics int32
	for i := range newCode {
		switch newCode[i].Op {
		case OpCall, OpLoadSelect, OpLoadIdent:
			newCode[i].C = ics
			ics++
		}
	}

	fn.Code, fn.Runs, fn.Blocks, fn.NICs = newCode, runs, blocks, ics
}
