// Optimizer example: run the Table IV experiment for one classifier — the
// Random Forest hot kernel on airlines data — showing how JEPO's automatic
// refactoring (modulus masking, static hoisting, double→float narrowing,
// loop interchange) translates into measured package/CPU/time improvements.
package main

import (
	"context"
	"fmt"
	"log"

	"jepo/internal/stats"
	"jepo/internal/tables"
)

func main() {
	cfg := tables.Table4Config{
		Seed:      20200518,
		Instances: 2000,
		Reps:      2,
		Protocol:  stats.Protocol{Runs: 3, MaxRounds: 5},
		CVFolds:   5,
		Progress:  func(msg string) { fmt.Println("  ", msg) },
	}
	fmt.Println("running the §VIII validation pipeline (reduced scale)...")
	rows, err := tables.Table4Supervised(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(tables.RenderTable4(rows))
	fmt.Println()
	if failed := tables.FailedRows(rows); len(failed) > 0 {
		log.Fatalf("%d classifier row(s) failed", len(failed))
	}
	var rf tables.Table4Row
	for _, r := range rows {
		if r.Classifier == "RandomForest" {
			rf = r
		}
	}
	fmt.Printf("headline: Random Forest improved %.2f%% package / %.2f%% CPU / %.2f%% time\n",
		rf.PackagePct, rf.CPUPct, rf.TimePct)
	fmt.Println("(the paper reports 14.46% / 14.19% / 12.93% on real hardware)")
}
