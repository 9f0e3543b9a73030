// Package passes is JEPO's unified pass engine: every Table I rule is a
// registered Pass whose match hooks run inside one shared AST traversal per
// file, emitting positioned Diagnostics. A diagnostic that can be repaired
// mechanically carries a Fix; ApplyFixes replays a set of fixes over the
// trees through the ast.Rewrite cursor API, and Refactor analyzes and
// applies over read-only parse masters, copying only what its fixes write.
// Detection therefore exists once: the suggestion views render diagnostics,
// and the refactorings apply their fixes — neither re-matches anything.
package passes

import "fmt"

// Rule identifies one Table I row.
type Rule int

// The eleven Table I rules, in the table's order, followed by the extension
// rules for the "exception" and "objects" components the paper's abstract
// lists but Table I does not quantify (its §IX names "more suggestions" as
// future work).
const (
	RulePrimitiveTypes Rule = iota
	RuleScientificNotation
	RuleWrapperClasses
	RuleStaticKeyword
	RuleModulusOperator
	RuleTernaryOperator
	RuleShortCircuit
	RuleStringConcat
	RuleStringComparison
	RuleArraysCopy
	RuleArrayTraversal
	numTableIRules

	// Extension rules (suggestion-only; not mechanically applied).
	RuleExceptionInLoop Rule = iota - 1 // account for the numTableIRules slot
	RuleObjectInLoop
	numRules
)

// NumTableIRules is the number of rules Table I quantifies.
const NumTableIRules = int(numTableIRules)

// NumRules is the total rule count including the extension rules.
const NumRules = int(numRules)

var ruleMeta = [...]struct {
	component  string
	suggestion string
}{
	RulePrimitiveTypes: {"Primitive data types",
		"int is the most energy-efficient primitive data type. Replace if possible."},
	RuleScientificNotation: {"Scientific notation",
		"Scientific notation results in lower energy consumption of decimal numbers."},
	RuleWrapperClasses: {"Wrapper classes",
		"Integer Wrapper class object is the most energy-efficient. Replace if possible."},
	RuleStaticKeyword: {"Static keyword",
		"static keyword consumes up to 17,700% more energy. Avoid if possible."},
	RuleModulusOperator: {"Arithmetic operators",
		"Modulus arithmetic operator consumes up to 1,620% more energy than other arithmetic operators."},
	RuleTernaryOperator: {"Ternary operator",
		"Ternary operator consumes up to 37% more energy than if-then-else statement."},
	RuleShortCircuit: {"Short circuit operator",
		"Put most common case first for lower energy consumption."},
	RuleStringConcat: {"String concatenation operator",
		"StringBuilder append method consumes much lower energy than String concatenation operator."},
	RuleStringComparison: {"String comparison",
		"String compareTo method consumes up to 33% more energy than the String equals method."},
	RuleArraysCopy: {"Arrays copy",
		"System.arraycopy() is the most energy-efficient way to copy Arrays."},
	RuleArrayTraversal: {"Array traversal",
		"Two-dimensional Array column traversal result in up to 793% more energy."},
	RuleExceptionInLoop: {"Exceptions",
		"Exception handling inside a hot loop pays the try/throw cost every iteration. Restructure if possible."},
	RuleObjectInLoop: {"Objects",
		"Object allocation inside a loop churns the heap. Reuse an instance if possible."},
}

// Component is the Table I "Java Components" label for the rule.
func (r Rule) Component() string { return ruleMeta[r].component }

// Text is the Table I suggestion text for the rule.
func (r Rule) Text() string { return ruleMeta[r].suggestion }

// String names the rule by component.
func (r Rule) String() string {
	if r < 0 || r >= numRules {
		return fmt.Sprintf("rule(%d)", int(r))
	}
	return ruleMeta[r].component
}

// TableIRules lists only the rules Table I quantifies, in the table's order.
func TableIRules() []Rule {
	out := make([]Rule, NumTableIRules)
	for i := range out {
		out[i] = Rule(i)
	}
	return out
}

// AllRules lists every rule — Table I plus the extension rules. (The
// extension rules start at the value of the numTableIRules sentinel, so the
// rule values are contiguous.)
func AllRules() []Rule {
	out := make([]Rule, NumRules)
	for i := range out {
		out[i] = Rule(i)
	}
	return out
}
