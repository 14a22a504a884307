package matrix

import (
	"math"
	"testing"
)

// within reports |got/want − 1| ≤ rel.
func within(got, want, rel float64) bool {
	return math.Abs(got-want) <= rel*math.Abs(want)
}

// TestSpectralBracket pins the bracket on matrices whose spectral radius
// is known exactly, one per structure the certificate meets or must
// survive.
func TestSpectralBracket(t *testing.T) {
	ws := NewWorkspace()
	for _, tc := range []struct {
		name string
		a    *Dense
		sp   float64 // 0: no closed form
		full bool    // runs the whole 40-squaring chain
		open bool    // never closes: the Gelfand-40 partial is the fallback
	}{
		// Diagonal: every x has ratios pinned at the diagonal, so the
		// lower end never leaves min(diag); the upper end is exact from
		// the first step.
		{"diagonal", Diag([]float64{0.3, 0.8, 0.1}), 0.8, true, true},
		{"stochastic", NewFromRows([][]float64{{0.5, 0.5}, {0.25, 0.75}}), 1, false, false},
		// Periodic block structure (power iteration's nemesis).
		{"2-cycle", NewFromRows([][]float64{{0, 0.9}, {0.9, 0}}), 0.9, false, false},
		// An odd cycle with unequal weights stays periodic under every
		// squaring: its ratios rotate and never agree.
		{"3-cycle", NewFromRows([][]float64{{0, 1, 0}, {0, 0, 0.1}, {0.1, 0, 0}}), math.Cbrt(0.01), true, true},
		// Defective: the iterate's trailing components decay only like
		// 1/steps, so the ratios close no sooner than the 2^-40 root
		// squeezes them together.
		{"jordan", NewFromRows([][]float64{{0.5, 1, 0}, {0, 0.5, 1}, {0, 0, 0.5}}), 0.5, true, false},
		// Reducible, the dominant block unreachable from the other: that
		// component of x decays geometrically until it underflows, and the
		// chain finishes on Gelfand partials alone.
		{"positivity-lost", NewFromRows([][]float64{{0.1, 0}, {1, 0.9}}), 0.9, true, true},
		// Irreducible and aperiodic: the case the certificate meets; it
		// must close well before the cap.
		{"irreducible", NewFromRows([][]float64{{0.2, 0.3, 0.1}, {0.4, 0.1, 0.2}, {0.1, 0.5, 0.3}}), 0, false, false},
	} {
		lo, hi, sq, closed := spectralBracket(tc.a, 0, ws)
		if tc.full != (sq == bracketMaxSquarings) || (tc.open && closed) || (!tc.full && !closed) {
			t.Errorf("%s: closed = %v after %d squarings, want full chain %v, never closing %v",
				tc.name, closed, sq, tc.full, tc.open)
		}
		if lo > hi {
			t.Errorf("%s: lo %g > hi %g", tc.name, lo, hi)
		}
		if g := SpectralRadiusUpperBound(tc.a, 40); hi > g*(1+1e-12) {
			t.Errorf("%s: hi %.17g above Gelfand-40 %.17g", tc.name, hi, g)
		}
		if tc.sp == 0 {
			continue // no closed form: closing is the check
		}
		if hi < tc.sp || !within(hi, tc.sp, 1e-10) {
			t.Errorf("%s: hi = %.17g, want ≥ %g within 1e-10", tc.name, hi, tc.sp)
		}
		if lo > tc.sp*(1+1e-14) {
			t.Errorf("%s: lo = %.17g above sp %g", tc.name, lo, tc.sp)
		}
	}

	// A nilpotent chain loses a zero row at a time to deflation, down to
	// nothing: sp = 0 exactly, without a single squaring.
	chain := NewFromRows([][]float64{
		{0, 2, 0, 0},
		{0, 0, 3, 0},
		{0, 0, 0, 4},
		{0, 0, 0, 0},
	})
	if lo, hi, sq, _ := spectralBracket(chain, 0, ws); lo != 0 || hi != 0 || sq != 0 {
		t.Errorf("nilpotent chain: [%g, %g] after %d squarings, want [0, 0] after 0", lo, hi, sq)
	}
	// Deflation is exact under a non-trivial remainder: zero rows feeding
	// a 0.9 2-cycle leave the cycle's spectral radius.
	fed := NewFromRows([][]float64{
		{0, 0.9, 0, 5},
		{0.9, 0, 7, 0},
		{0, 0, 0, 0},
		{0, 0, 3, 0},
	})
	if _, hi := SpectralBracketWS(fed, 0, ws); !within(hi, 0.9, 1e-13) {
		t.Errorf("deflated 2-cycle: hi = %.17g, want 0.9", hi)
	}
	if lo, hi := SpectralBracketWS(New(0, 0), 0, ws); lo != 0 || hi != 0 {
		t.Errorf("0×0: [%g, %g], want [0, 0]", lo, hi)
	}
	nan := NewFromRows([][]float64{{0.5, math.NaN()}, {0, 0.5}})
	if _, hi := SpectralBracketWS(nan, 1, ws); !math.IsInf(hi, 1) {
		t.Errorf("non-finite input: hi = %g, want +Inf", hi)
	}
}

// TestSpectralBracketAllocationFree: on a warm workspace the bracket —
// deflation, squarings and power steps — allocates nothing.
func TestSpectralBracketAllocationFree(t *testing.T) {
	a := New(24, 24)
	for i := 0; i < 24; i++ {
		for j := 0; j < 24; j++ {
			if i != 5 && (i+2*j)%5 != 0 { // row 5 is zero: deflation runs
				a.Set(i, j, 0.01*float64(1+(3*i+j)%7))
			}
		}
	}
	ws := NewWorkspace()
	SpectralBracketWS(a, 0, ws)
	if allocs := testing.AllocsPerRun(20, func() { SpectralBracketWS(a, 0, ws) }); allocs != 0 {
		t.Fatalf("SpectralBracketWS allocates %v times per call on a warm workspace, want 0", allocs)
	}
}

// FuzzSpectralBracket is the bracket's soundness fuzz over small
// matrices built to hit its edges: zero rows and columns (deflation),
// tiny negative entries (the |a| step), cycles (periodic structure) and
// Jordan-like chains (defective, the Gelfand fallback), at magnitudes
// from 2⁻⁶⁰ to 2⁶⁰. Whatever the input, the upper end never falls below
// the exact spectral radius (closed form at order 2, the lower end of a
// long shifted power iteration on |a| above), lo ≤ hi, and a matrix whose every row
// of |a| sums past 1 — so sp(|a|) ≥ 1 — never gets an upper end below 1,
// with or without the limit exit.
func FuzzSpectralBracket(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0, 0, 10, 200, 30, 40})                 // 2×2 dense
	f.Add([]byte{3, 1, 0, 0, 0, 0, 100, 5, 250, 17, 90})             // 4-cycle, unequal weights
	f.Add([]byte{4, 2, 0, 0, 0, 0, 128, 64})                         // Jordan-like chain
	f.Add([]byte{5, 3, 0b100100, 0b000010, 0b1011, 0, 7, 99, 3, 12}) // sparse, zero rows/cols, negatives
	f.Add([]byte{2, 0, 0, 0, 0, 1, 50, 60, 70, 80, 90})              // lifted: sp(|a|) ≥ 1
	f.Add([]byte{5, 0, 0, 0, 0, 1, 255, 1, 255, 1, 255, 1})          // lifted, wide spread
	f.Fuzz(func(t *testing.T, data []byte) {
		a, lifted := bracketFuzzMatrix(data)
		n := a.Rows()
		ws := NewWorkspace()
		lo, hi := SpectralBracketWS(a, 0, ws)
		_, hiQuick := SpectralBracketWS(a, 1, ws)
		if !(lo <= hi) || lo < 0 || math.IsNaN(hi) {
			t.Fatalf("bracket [%g, %g] out of order for %v", lo, hi, a)
		}
		if hiQuick < hi*(1-1e-14) {
			t.Fatalf("limit exit %g below the tight bound %g for %v", hiQuick, hi, a)
		}
		if lifted && (hi < 1 || hiQuick < 1) {
			t.Fatalf("sp(|a|) ≥ 1 but the bracket gives %g (limit exit %g) for %v", hi, hiQuick, a)
		}
		abs := New(n, n)
		for i := range abs.data {
			abs.data[i] = math.Abs(a.data[i])
		}
		if n == 2 {
			// sp of a non-negative 2×2 matrix, with no cancellation:
			// (p+s)/2 + sqrt(((p−s)/2)² + q·r).
			p, q, r, s := abs.data[0], abs.data[1], abs.data[2], abs.data[3]
			half := (p - s) / 2
			sp := (p+s)/2 + math.Sqrt(half*half+q*r)
			if hi < sp*(1-1e-14) {
				t.Fatalf("hi %.17g below the closed form %.17g for %v", hi, sp, a)
			}
			if lo > sp*(1+1e-14) {
				t.Fatalf("lo %.17g above the closed form %.17g for %v", lo, sp, a)
			}
			return
		}
		if lb := powerLowerBound(abs, 5000); hi < lb*(1-1e-13) {
			t.Fatalf("hi %.17g below the power-iteration lower bound %.17g for %v", hi, lb, a)
		}
	})
}

// powerLowerBound runs a long shifted power iteration on a non-negative
// a and returns the Collatz–Wielandt lower end at its final iterate x,
// restricted to the support of x once entries below 1e-8·max(x) are
// zeroed: for x ≥ 0, x ≠ 0, min over the support of (ax)_i/x_i ≤ sp(a).
// Unlike a stopping rule on the estimate's change, the bound cannot be
// fooled by a step that happens to leave the estimate unchanged.
func powerLowerBound(a *Dense, steps int) float64 {
	n := a.Rows()
	shift := 0.05 * a.InfNorm()
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = 1
	}
	for s := 0; s < steps; s++ {
		MulVecTo(y, a, x)
		var ymax float64
		for i := range y {
			y[i] += shift * x[i]
			ymax = math.Max(ymax, y[i])
		}
		if ymax == 0 {
			return 0
		}
		for i := range x {
			x[i] = y[i] / ymax
			if x[i] < 1e-8 {
				x[i] = 0
			}
		}
	}
	MulVecTo(y, a, x)
	lb := math.Inf(1)
	for i := range x {
		if x[i] > 0 {
			lb = math.Min(lb, y[i]/x[i])
		}
	}
	return lb
}

// bracketFuzzMatrix decodes a fuzz input into an order-1…6 matrix:
// data[0] picks the order, data[1] the structure (dense, cycle,
// Jordan-like chain, sparse), data[2]/data[3] bit masks of zeroed rows
// and columns, data[4] a bit mask of rows whose first entry turns into a
// tiny negative, data[5]'s low bit lifts every row sum of |a| past 1
// (and odd bits of it set the magnitude). The remaining bytes are the
// entries, cycled.
func bracketFuzzMatrix(data []byte) (*Dense, bool) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	n := 1 + int(at(0))%6
	mode := at(1) % 4
	entries := data[min(len(data), 6):]
	next := 0
	val := func() float64 {
		if len(entries) == 0 {
			return 0.5
		}
		v := float64(entries[next%len(entries)]) / 255
		next++
		return v
	}
	scale := math.Ldexp(1, int(at(5)>>1)%121-60)
	a := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			switch mode {
			case 0: // dense
				a.Set(i, j, val())
			case 1: // cycle i → i+1
				if j == (i+1)%n {
					a.Set(i, j, val())
				}
			case 2: // Jordan-like: equal diagonal, superdiagonal chain
				if j == i {
					a.Set(i, j, float64(at(6)+1)/256)
				} else if j == i+1 {
					a.Set(i, j, val()+0.25)
				}
			default: // sparse
				if v := val(); v > 0.5 {
					a.Set(i, j, v)
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if at(2)&(1<<i) != 0 || at(3)&(1<<j) != 0 {
				a.Set(i, j, 0)
			}
		}
		if at(4)&(1<<i) != 0 {
			a.Set(i, 0, -1e-17*float64(1+i))
		}
	}
	lifted := at(5)&1 != 0
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			sum += math.Abs(a.At(i, j))
		}
		if lifted {
			if sum == 0 {
				a.Set(i, i, 1)
				sum = 1
			}
			// Rows of |a| then sum to at least 1 + 1e-9 − rounding.
			for j := 0; j < n; j++ {
				a.Set(i, j, a.At(i, j)*(1+1e-9)/sum)
			}
		}
	}
	if !lifted {
		for i := range a.data {
			a.data[i] *= scale
		}
	}
	return a, lifted
}
