package passes

import "jepo/internal/minijava/ast"

// applier carries the state of one ApplyFixes run.
type applier struct {
	res     *Result
	anchors map[ast.Node][]*Fix

	// inMethodBody distinguishes the method-body traversals (which never
	// enter array literals) from field-initializer traversals (which do).
	inMethodBody bool

	// fieldApplied records which declaration fix ran on each field, so
	// hoisted locals can mirror it.
	fieldApplied map[*ast.Field]fieldFixKind
	hoisted      []hoistRecord
}

type hoistRecord struct {
	field *ast.Field
	local *ast.LocalVar
}

// ApplyFixes applies every fix carried by the diagnostics, mutating the files
// in place, and reports how many changes were made per rule. Fixes run in
// three phases: statics hoisting, field/parameter declaration surgery, then
// one cursor traversal per file that fires each remaining fix when the
// cursor reaches its anchor. Fixes sharing an anchor run in diagnostic
// order; a fix whose anchor is removed by an earlier fix (a declaration
// inside a loop that became a System.arraycopy call) simply never fires.
//
// ApplyFixes panics on a frozen file and on a fix detected on frozen files
// (see AnalyzeFiles): both would write a read-only parse master.
func ApplyFixes(files []*ast.File, diags []Diagnostic) *Result {
	for _, f := range files {
		if f.Frozen() {
			panic("passes: ApplyFixes on read-only parse master " + f.Path + " (rewrite an ast.CloneFile copy)")
		}
	}
	for _, d := range diags {
		if d.Fix != nil && d.Fix.readOnly {
			panic("passes: ApplyFixes of a fix detected on read-only parse masters (analyze ast.CloneFile copies)")
		}
	}
	res := &Result{ByRule: map[Rule]int{}}
	ap := &applier{
		res:          res,
		anchors:      map[ast.Node][]*Fix{},
		fieldApplied: map[*ast.Field]fieldFixKind{},
	}
	var hoists, decls []*Fix
	for _, d := range diags {
		fx := d.Fix
		if fx == nil {
			continue
		}
		switch {
		case fx.direct != nil && fx.phase == phaseHoist:
			hoists = append(hoists, fx)
		case fx.direct != nil:
			decls = append(decls, fx)
		default:
			ap.anchors[fx.anchor] = append(ap.anchors[fx.anchor], fx)
		}
	}
	// Phase 0: hoists restructure whole method bodies. They run before
	// declaration surgery so the inserted load carries the field's original
	// type.
	for _, fx := range hoists {
		res.add(fx.rule, fx.direct(ap))
	}
	// Phase 1: declaration surgery on fields and parameters.
	for _, fx := range decls {
		n := fx.direct(ap)
		res.add(fx.rule, n)
		if n > 0 && fx.field != nil {
			ap.fieldApplied[fx.field] = fx.fieldKind
		}
	}
	// Hoisted locals inherit their field's declaration fix — the load was
	// created with the pre-surgery type.
	for _, h := range ap.hoisted {
		switch ap.fieldApplied[h.field] {
		case fieldFixNarrow:
			if narrowType(&h.local.Type) {
				res.add(RulePrimitiveTypes, 1)
			}
		case fieldFixWrapper:
			if integerizeWrapper(&h.local.Type) {
				res.add(RuleWrapperClasses, 1)
			}
		}
	}
	// Phase 2: one traversal per file.
	for _, f := range files {
		for _, cl := range f.Classes {
			for _, fd := range cl.Fields {
				if fd.Init != nil {
					ap.inMethodBody = false
					ast.Rewrite(fd.Init, ap.applyHook, nil)
				}
			}
			for _, mt := range cl.Methods {
				if mt.Body != nil {
					ap.inMethodBody = true
					ast.Rewrite(mt.Body, ap.applyHook, nil)
				}
			}
		}
	}
	return res
}

func (ap *applier) applyHook(c *ast.Cursor) bool {
	descend := true
	for _, fx := range ap.anchors[c.Node()] {
		n, d := fx.apply(ap, c)
		ap.res.add(fx.rule, n)
		if !d {
			descend = false
		}
	}
	if !descend {
		return false
	}
	// Method-body array literals hold constant data the rewriters never
	// touched; field initializers are traversed in full.
	if _, ok := c.Node().(*ast.ArrayLit); ok && ap.inMethodBody {
		return false
	}
	return true
}
