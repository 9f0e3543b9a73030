// Package tables regenerates every table of the paper's evaluation:
// Table I (component energy ratios behind the suggestions), Table II
// (per-classifier WEKA metrics), Table III (the airlines schema) and
// Table IV (the end-to-end WEKA refactoring validation). Each function
// returns structured rows plus a renderer that matches the paper's layout.
package tables

import (
	"context"
	"fmt"
	"strings"

	"jepo/internal/energy"
	"jepo/internal/engine"
	"jepo/internal/minijava/interp"
	"jepo/internal/passes"
	"jepo/internal/sched"
)

// Table1Row is one measured component comparison.
type Table1Row struct {
	Rule        passes.Rule
	Component   string
	Suggestion  string
	PaperClaim  string  // the "up to N%" figure Table I quotes
	MeasuredPct float64 // measured extra energy of the inefficient variant
}

// table1Bench is a pair of programs: the inefficient variant and the
// efficient one the suggestion recommends. Both expose `static double f()`
// in class B (for bench) and must compute comparable results.
type table1Bench struct {
	rule       passes.Rule
	paperClaim string
	slow, fast string
}

const table1Iters = "20000"

var table1Benches = []table1Bench{
	{
		rule:       passes.RulePrimitiveTypes,
		paperClaim: "int is the most energy-efficient primitive",
		slow: `class B { static double f() {
			double s = 0.0;
			for (int i = 0; i < ` + table1Iters + `; i++) { s = s + i; }
			return s;
		} }`,
		fast: `class B { static double f() {
			int s = 0;
			for (int i = 0; i < ` + table1Iters + `; i++) { s = s + i; }
			return s;
		} }`,
	},
	{
		rule:       passes.RuleScientificNotation,
		paperClaim: "scientific notation is cheaper for decimals",
		slow: `class B { static double f() {
			double s = 0.0;
			for (int i = 0; i < ` + table1Iters + `; i++) { s = s + 100000.0; }
			return s;
		} }`,
		fast: `class B { static double f() {
			double s = 0.0;
			for (int i = 0; i < ` + table1Iters + `; i++) { s = s + 1e5; }
			return s;
		} }`,
	},
	{
		rule:       passes.RuleWrapperClasses,
		paperClaim: "Integer is the most energy-efficient wrapper",
		slow: `class B { static double f() {
			int s = 0;
			for (int i = 0; i < 2000; i++) {
				Long v = Long.valueOf(i % 100);
				s += v.intValue();
			}
			return s;
		} }`,
		fast: `class B { static double f() {
			int s = 0;
			for (int i = 0; i < 2000; i++) {
				Integer v = Integer.valueOf(i % 100);
				s += v.intValue();
			}
			return s;
		} }`,
	},
	{
		rule:       passes.RuleStaticKeyword,
		paperClaim: "static +17,700%",
		slow: `class B {
			static int acc;
			static double f() {
				for (int i = 0; i < ` + table1Iters + `; i++) { acc += i; }
				return acc;
			}
		}`,
		fast: `class B { static double f() {
			int acc = 0;
			for (int i = 0; i < ` + table1Iters + `; i++) { acc += i; }
			return acc;
		} }`,
	},
	{
		rule:       passes.RuleModulusOperator,
		paperClaim: "modulus +1,620%",
		slow: `class B { static double f() {
			int s = 0;
			for (int i = 1; i < ` + table1Iters + `; i++) { s += i % 7; }
			return s;
		} }`,
		fast: `class B { static double f() {
			int s = 0;
			for (int i = 1; i < ` + table1Iters + `; i++) { s += i * 7; }
			return s;
		} }`,
	},
	{
		rule:       passes.RuleTernaryOperator,
		paperClaim: "ternary +37%",
		slow: `class B { static double f() {
			int s = 0;
			for (int i = 0; i < ` + table1Iters + `; i++) {
				s += i > 10000 ? 2 : 1;
			}
			return s;
		} }`,
		fast: `class B { static double f() {
			int s = 0;
			for (int i = 0; i < ` + table1Iters + `; i++) {
				if (i > 10000) { s += 2; } else { s += 1; }
			}
			return s;
		} }`,
	},
	{
		rule:       passes.RuleShortCircuit,
		paperClaim: "most common case first",
		// i > 3 is true for nearly every iteration; testing it first
		// short-circuits the expensive second test.
		slow: `class B { static double f() {
			int s = 0;
			for (int i = 0; i < ` + table1Iters + `; i++) {
				if (i % 9999 == 0 || i > 3) { s++; }
			}
			return s;
		} }`,
		fast: `class B { static double f() {
			int s = 0;
			for (int i = 0; i < ` + table1Iters + `; i++) {
				if (i > 3 || i % 9999 == 0) { s++; }
			}
			return s;
		} }`,
	},
	{
		rule:       passes.RuleStringConcat,
		paperClaim: "StringBuilder ≪ concatenation",
		slow: `class B { static double f() {
			String s = "";
			for (int i = 0; i < 400; i++) { s = s + "x"; }
			return s.length();
		} }`,
		fast: `class B { static double f() {
			StringBuilder sb = new StringBuilder();
			for (int i = 0; i < 400; i++) { sb.append("x"); }
			return sb.toString().length();
		} }`,
	},
	{
		rule:       passes.RuleStringComparison,
		paperClaim: "compareTo +33%",
		slow: `class B { static double f() {
			String a = "airlinesAirlines";
			String b = "airlinesAirlines";
			int s = 0;
			for (int i = 0; i < 4000; i++) {
				if (a.compareTo(b) == 0) { s++; }
			}
			return s;
		} }`,
		fast: `class B { static double f() {
			String a = "airlinesAirlines";
			String b = "airlinesAirlines";
			int s = 0;
			for (int i = 0; i < 4000; i++) {
				if (a.equals(b)) { s++; }
			}
			return s;
		} }`,
	},
	{
		rule:       passes.RuleArraysCopy,
		paperClaim: "System.arraycopy is the best copy",
		slow: `class B { static double f() {
			int[] a = new int[4000];
			int[] b = new int[4000];
			for (int r = 0; r < 10; r++) {
				for (int i = 0; i < 4000; i++) { b[i] = a[i]; }
			}
			return b[3999];
		} }`,
		fast: `class B { static double f() {
			int[] a = new int[4000];
			int[] b = new int[4000];
			for (int r = 0; r < 10; r++) {
				System.arraycopy(a, 0, b, 0, 4000);
			}
			return b[3999];
		} }`,
	},
	{
		rule:       passes.RuleArrayTraversal,
		paperClaim: "column traversal +793%",
		slow: `class B { static double f() {
			int[][] m = new int[600][600];
			int s = 0;
			for (int j = 0; j < 600; j++) {
				for (int i = 0; i < 600; i++) { s += m[i][j]; }
			}
			return s;
		} }`,
		fast: `class B { static double f() {
			int[][] m = new int[600][600];
			int s = 0;
			for (int i = 0; i < 600; i++) {
				for (int j = 0; j < 600; j++) { s += m[i][j]; }
			}
			return s;
		} }`,
	},
}

// InterpBench is one named interpreter benchmark program: a Table I variant
// exposing `static double f()` in class B.
type InterpBench struct {
	Name string
	Src  string
}

// InterpBenches lists the Table I benchmark corpus, slow and fast variant of
// each pair in paper order: Table1Jobs measures it, and the engine-diff and
// race tests and the repository benchmark's per-layer tracer (bench/tracer)
// run it.
func InterpBenches() []InterpBench {
	out := make([]InterpBench, 0, 2*len(table1Benches))
	for _, b := range table1Benches {
		out = append(out,
			InterpBench{Name: fmt.Sprintf("%v/inefficient", b.rule), Src: b.slow},
			InterpBench{Name: fmt.Sprintf("%v/efficient", b.rule), Src: b.fast},
		)
	}
	return out
}

// measureBench runs one program variant and returns its package energy. The
// source is parsed through the artifact engine's parse store; the program is
// linked and run afresh.
func measureBench(ctx context.Context, src string, eng interp.Engine) (energy.Joules, error) {
	s, err := engine.Default().Sample(ctx,
		[]engine.Source{{Path: "bench.java", Source: src}},
		engine.RunSpec{CallClass: "B", CallMethod: "f", MaxOps: 200_000_000, Engine: eng})
	if err != nil {
		return 0, err
	}
	return s.Package, nil
}

// Table1Jobs measures every Table I component pair on a jobs-wide pool and
// returns the rows in the paper's order. Every number is produced by
// executing both variants on the energy-model interpreter and comparing
// package energy. Each of the 22 variants is its own task, run on a fresh
// interpreter and meter, so one costly pair (array traversal) does not hold
// a worker for both of its variants. The rows are assembled in paper order from the per-variant
// energies, so they are bit-identical at any width.
func Table1Jobs(ctx context.Context, engine interp.Engine, jobs int) ([]Table1Row, sched.Telemetry, error) {
	variants := InterpBenches() // slow then fast variant of each pair
	joules, tel, err := sched.Map(ctx, sched.Config{Jobs: jobs}, variants, func(t sched.Task, v InterpBench) (energy.Joules, error) {
		j, err := measureBench(ctx, v.Src, engine)
		if err != nil {
			kind := "slow"
			if t.Index%2 == 1 {
				kind = "fast"
			}
			return 0, fmt.Errorf("tables: %v %s variant: %w", table1Benches[t.Index/2].rule, kind, err)
		}
		return j, nil
	})
	if err != nil {
		return nil, tel, err
	}
	rows := make([]Table1Row, len(table1Benches))
	for i, b := range table1Benches {
		slow, fast := joules[2*i], joules[2*i+1]
		rows[i] = Table1Row{
			Rule:        b.rule,
			Component:   b.rule.Component(),
			Suggestion:  b.rule.Text(),
			PaperClaim:  b.paperClaim,
			MeasuredPct: 100 * (float64(slow)/float64(fast) - 1),
		}
	}
	return rows, tel, nil
}

// RenderTable1 lays the rows out like the paper's Table I, with the measured
// column appended.
func RenderTable1(rows []Table1Row) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-30s %14s  %s\n", "Java Components", "Measured", "Suggestion")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-30s %+13.1f%%  %s\n", r.Component, r.MeasuredPct, r.Suggestion)
	}
	return sb.String()
}
