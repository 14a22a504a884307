package core

import (
	"testing"

	"repro/internal/matrix"
	"repro/internal/qbd"
)

// TestQBDSolveAllocationBudget pins the allocation count of one
// per-class QBD solve on a reused workspace — the solve the fixed point
// repeats L times per round. Once the arena is warm, what remains is
// the solution's own storage plus the certificate; a regression such as
// a multiply-kernel argument escaping to the heap (one allocation per
// all-nonzero panel) shows up as thousands more.
func TestQBDSolveAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	m := paperModel(0.4, [4]float64{0.5, 1, 2, 4}, 1, 0.01)
	ch, err := BuildClassChain(m, 0, HeavyTrafficIntervisit(m, 0))
	if err != nil {
		t.Fatal(err)
	}
	opts := qbd.RMatrixOptions{Workspace: matrix.NewWorkspace()}
	if _, err := qbd.Solve(ch.Proc, opts); err != nil { // warms the arena
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := qbd.Solve(ch.Proc, opts); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 106
	if allocs > budget {
		t.Fatalf("qbd.Solve on a warm workspace allocates %v times per call, budget %d", allocs, budget)
	}
}
