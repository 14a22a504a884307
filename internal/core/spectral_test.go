package core_test

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/matrix"
)

// TestSpectralBracketTightness pins the certificate's spectral bound,
// the upper end of the Collatz–Wielandt bracket, to the 40-squaring
// Gelfand bound it replaced: within 1e-11 relative on every stable
// class of the paper model and of benchModelL(4).
func TestSpectralBracketTightness(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *core.Model
	}{
		{"paper", core.PaperModel(0.4, [4]float64{0.5, 1, 2, 4}, 1, 0.01)},
		{"L4", benchModelL(4)},
	} {
		res, err := core.Solve(tc.m, core.SolveOptions{})
		if err != nil {
			t.Fatal(err)
		}
		stable := 0
		for p, cr := range res.Classes {
			if !cr.Stable {
				continue
			}
			stable++
			g := matrix.SpectralRadiusUpperBound(cr.Solution.R, 40)
			if rel := cr.Cert.SpectralRadius/g - 1; math.Abs(rel) > 1e-11 {
				t.Errorf("%s class %d: bracket %.17g vs Gelfand-40 %.17g (relative %.3g)",
					tc.name, p, cr.Cert.SpectralRadius, g, rel)
			}
		}
		if stable < 2 {
			t.Fatalf("%s: only %d stable classes", tc.name, stable)
		}
	}
}

// TestSolveAllocationBudget pins the allocation count of one whole
// serial core.Solve on benchModel: the fixed point's rounds, every
// per-class QBD solve on fresh workspaces, and the result assembly.
// Serial, so the count does not depend on the machine's CPU count; the
// spectral bracket draws only shapes the ladder already holds, so it
// adds nothing to it even on a cold workspace.
func TestSolveAllocationBudget(t *testing.T) {
	if core.RaceEnabled {
		t.Skip("allocation counts are not stable under the race detector")
	}
	m := benchModel()
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := core.Solve(m, core.SolveOptions{Parallel: 1}); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 40249
	if allocs > budget {
		t.Fatalf("core.Solve(benchModel) allocates %v times per call, budget %d", allocs, budget)
	}
}
