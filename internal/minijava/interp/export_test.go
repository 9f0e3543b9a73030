package interp

// Compiled reports whether p has been lowered to bytecode yet.
func Compiled(p *Program) bool { return p.funcs != nil }
