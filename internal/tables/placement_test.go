package tables

import (
	"context"
	"math"
	"reflect"
	"testing"

	"jepo/internal/minijava/interp"
)

// TestTable2Placements: Table II on the pool produces exactly the rows of
// the inline run.
func TestTable2Placements(t *testing.T) {
	want, _, err := Table2Parallel(context.Background(), 20200518, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, tel, err := Table2Parallel(context.Background(), 20200518, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tel.Jobs != 3 {
		t.Errorf("ran on %d workers, want 3: %s", tel.Jobs, tel)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("pool rows diverge from inline:\n got %+v\nwant %+v", got, want)
	}
}

// TestTable1Placements runs the full Table I on the pool and compares every
// measured bit against the inline run. Skipped under -short: it executes
// all 22 benchmark variants twice.
func TestTable1Placements(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 measurement is slow")
	}
	want, _, err := Table1Jobs(context.Background(), interp.EngineVM, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, tel, err := Table1Jobs(context.Background(), interp.EngineVM, 2)
	if err != nil {
		t.Fatal(err)
	}
	if tel.Jobs != 2 {
		t.Errorf("ran on %d workers, want 2: %s", tel.Jobs, tel)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("pool Table I rows diverge from inline")
	}
	for i := range got {
		if math.Float64bits(got[i].MeasuredPct) != math.Float64bits(want[i].MeasuredPct) {
			t.Errorf("row %d: measured pct bits diverge", i)
		}
	}
}
