package interp

import (
	"fmt"

	"jepo/internal/minijava/ast"
	"jepo/internal/minijava/bytecode"
)

// Compiled reports whether p has been lowered to bytecode yet.
func Compiled(p *Program) bool { return p.funcs != nil }

// MarkOps marks in seen every opcode of in's program's compiled streams, as
// Finalize left them: the streams the VM runs.
func MarkOps(in *Interp, seen map[bytecode.Op]bool) {
	for _, cf := range in.prog.funcs {
		if cf.fn != nil {
			for _, ins := range cf.fn.Code {
				seen[ins.Op] = true
			}
		}
	}
}

// SiteGaps lists what Load left unresolved in f, which p was loaded from:
// every Call, Select and New without an index into p's site table, and every
// class-name identifier (ResClass) without the index of its reference in
// p's classRefs table.
func SiteGaps(p *Program, f *ast.File) []string {
	var gaps []string
	site := func(pos any, what string, ix int32) {
		if ix < 1 || int(ix) > len(p.sites) {
			gaps = append(gaps, fmt.Sprintf("%v: %s has site %d of %d", pos, what, ix, len(p.sites)))
		}
	}
	ast.InspectFile(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Call:
			site(x.Pos, "call "+x.Name, x.SiteIx)
		case *ast.Select:
			site(x.Pos, "select ."+x.Name, x.SiteIx)
		case *ast.New:
			site(x.Pos, "new "+x.Name, x.SiteIx)
		case *ast.Ident:
			if x.RKind == ast.ResClass {
				if ix := int(x.RIx); ix < 0 || ix >= len(p.classRefs) || p.classRefs[ix] != (Value{K: KClassRef, R: x.Name}) {
					gaps = append(gaps, fmt.Sprintf("%v: class name %s has classRefs index %d", x.Pos, x.Name, x.RIx))
				}
			}
		}
		return true
	})
	return gaps
}
