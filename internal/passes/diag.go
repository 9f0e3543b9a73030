package passes

import (
	"fmt"

	"jepo/internal/minijava/ast"
)

// Severity classifies a diagnostic for the unified view.
type Severity int

const (
	// SeverityInfo marks advisory findings with no mechanical repair (the
	// short-circuit ordering rule, the extension rules, and instances of
	// mechanical rules whose preconditions for a safe rewrite do not hold).
	SeverityInfo Severity = iota
	// SeverityFixable marks findings that carry a Fix.
	SeverityFixable
)

func (s Severity) String() string {
	if s == SeverityFixable {
		return "fix"
	}
	return "info"
}

// Diagnostic is one positioned finding emitted by a pass. A diagnostic is
// mechanically repairable exactly when Fix is non-nil. Fix closes over the
// exact AST nodes the match saw, so it is tagged out of the JSON form, and a
// decoded diagnostic has no fix.
type Diagnostic struct {
	File     string
	Class    string
	Method   string // empty for field-level findings
	Line     int
	Rule     Rule
	Detail   string // what was found, e.g. "field 'total' declared double"
	Severity Severity
	Fix      *Fix `json:"-"`
}

// String renders the optimizer-view row (Fig. 5): class, line, suggestion.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s (%s)", d.Class, d.Line, d.Rule.Component(), d.Rule.Text(), d.Detail)
}

// Fix phases: statics hoisting runs first (it restructures whole method
// bodies), then field/parameter declaration rewrites (plain type surgery,
// no tree walk), then a cursor traversal of every field initializer and of
// each method body holding an anchor applies every fix anchored at a node
// it reaches.
const (
	phaseHoist = iota
	phaseDecl
)

// A Fix is the mechanical repair attached to a diagnostic. Fixes are built by
// the match pass and replayed by ApplyFixes; they carry closures over the
// exact nodes the match saw, so applying never re-detects anything.
type Fix struct {
	rule Rule

	// Anchored fixes fire when the apply traversal's cursor reaches anchor;
	// apply reports how many changes it made and whether the traversal should
	// descend into the (possibly replaced) node.
	anchor ast.Node
	apply  func(ap *applier, c *ast.Cursor) (changes int, descend bool)
	// method is the method whose body holds anchor, nil for an anchor in a
	// field initializer: the apply traversal visits only the method bodies
	// some fix names.
	method *ast.Method

	// Direct fixes run in a numbered phase before the traversal.
	phase  int
	direct func(ap *applier) int

	// field is set on field-declaration fixes so the hoist pass can mirror
	// the field's type rewrite onto the local it introduces (the seed applied
	// declaration rules to hoisted locals the same way).
	field     *ast.Field
	fieldKind fieldFixKind

	// readOnly marks a fix detected on read-only input (see ast.File.Freeze).
	// Its closures hold the nodes of those frozen files, and a statics hoist
	// spans several files' methods, so applying it would write the frozen
	// files whatever files ApplyFixes is given: ApplyFixes refuses it.
	readOnly bool
}

type fieldFixKind int

const (
	fieldFixNone fieldFixKind = iota
	fieldFixNarrow
	fieldFixWrapper
)

// Result summarizes an ApplyFixes run. The Changes count corresponds to the
// "Changes" column of the paper's Table IV.
type Result struct {
	Changes int
	ByRule  map[Rule]int
}

func (r *Result) add(rule Rule, n int) {
	r.Changes += n
	r.ByRule[rule] += n
}

// A Pass is one registered rule. Its hooks are invoked from the single shared
// traversal the engine runs per file; a pass sets only the hooks its rule
// needs. Hooks emit diagnostics (with fixes where a mechanical repair is
// safe) via the matcher.
type Pass struct {
	Rule Rule
	Doc  string
	// Decl inspects a declared type: a field, parameter, or local variable.
	Decl func(m *matcher, d *declSite)
	// Field inspects a class field declaration (modifiers, hoistability).
	Field func(m *matcher, f *ast.Field)
	// Block runs when the traversal enters a statement block, before the
	// block's statements are visited (cluster-shaped matches).
	Block func(m *matcher, b *ast.Block)
	// Node inspects one node of the expression/statement traversal.
	Node func(m *matcher, n ast.Node)
}

// Registry lists every pass in Table I order followed by the extension
// passes. The engine consults it at each traversal site.
var Registry = []*Pass{
	{Rule: RulePrimitiveTypes,
		Doc:  "narrow long/short/byte→int and double→float declarations and array allocations",
		Decl: (*matcher).primitiveDecl, Node: (*matcher).primitiveNode},
	{Rule: RuleScientificNotation,
		Doc:  "rewrite long plain-decimal literals to scientific notation",
		Node: (*matcher).sciNode},
	{Rule: RuleWrapperClasses,
		Doc:  "replace Long/Short/Byte wrappers with Integer",
		Decl: (*matcher).wrapperDecl},
	{Rule: RuleStaticKeyword,
		Doc:   "hoist single-method mutable static fields into a local",
		Field: (*matcher).staticField},
	{Rule: RuleModulusOperator,
		Doc:  "strength-reduce i % 2^k to i & (2^k-1) for counted loop variables",
		Node: (*matcher).modulusNode},
	{Rule: RuleTernaryOperator,
		Doc:  "expand statement-position ternaries to if-then-else",
		Node: (*matcher).ternaryNode},
	{Rule: RuleShortCircuit,
		Doc:  "advisory: order short-circuit chains most-common-first",
		Node: (*matcher).shortCircuitNode},
	{Rule: RuleStringConcat,
		Doc:   "convert string accumulation loops to StringBuilder",
		Block: (*matcher).concatBlock, Node: (*matcher).concatNode},
	{Rule: RuleStringComparison,
		Doc:  "replace compareTo(x) == 0 equality tests with equals(x)",
		Node: (*matcher).compareToNode},
	{Rule: RuleArraysCopy,
		Doc:  "replace manual copy loops with System.arraycopy",
		Node: (*matcher).arraysCopyNode},
	{Rule: RuleArrayTraversal,
		Doc:  "interchange column-major nested loops",
		Node: (*matcher).arrayTraversalNode},
	{Rule: RuleExceptionInLoop,
		Doc:  "advisory: exception handling inside a hot loop",
		Node: (*matcher).exceptionNode},
	{Rule: RuleObjectInLoop,
		Doc:  "advisory: object allocation inside a loop",
		Node: (*matcher).objectNode},
}
