package interp

import "jepo/internal/minijava/bytecode"

// Runtime quickening support. A shared Program is immutable once compiled; the
// VM patches opcodes only in in.warm — this instance's private code copies —
// so concurrent interpreters over one Program never write shared memory. A
// copy is positionally identical to the finalized stream (patches swap
// opcodes in place), so jump offsets, block tables and the disassembler's
// annotations carry over unchanged. The quick forms cache nothing here: the
// call and select forms read the site cache (Interp.siteCache) at their C
// operand.

// warmFor returns this instance's warm copy of cf's code, creating it on
// first invocation.
func (in *Interp) warmFor(cf *compiledFn) []bytecode.Instr {
	if in.warm == nil {
		in.warm = make([][]bytecode.Instr, len(in.prog.funcs))
	}
	w := in.warm[cf.ix]
	if w == nil {
		w = append([]bytecode.Instr(nil), cf.fn.Code...)
		in.warm[cf.ix] = w
	}
	return w
}

// DisasmWarm renders the program's compiled form using this instance's warm
// (quickened) code copies where they exist — the `jperf disasm -warm`
// backend. Functions this instance never invoked print in their cold form.
func (in *Interp) DisasmWarm() string {
	in.prog.compile()
	return in.prog.disasm(func(cf *compiledFn) string {
		if in.warm != nil {
			if w := in.warm[cf.ix]; w != nil {
				return cf.fn.DisasmCode(w)
			}
		}
		return cf.fn.Disasm()
	})
}
