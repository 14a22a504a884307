package matrix

import (
	"errors"
	"math"
)

// ErrNoConverge is returned when an iterative method fails to converge
// within its iteration budget.
var ErrNoConverge = errors.New("matrix: iteration did not converge")

// SpectralRadius estimates the spectral radius of a square non-negative
// matrix by power iteration on a strictly positive start vector. For the
// rate matrices R arising in QBD analysis the dominant eigenvalue is real
// and non-negative (Perron-Frobenius), so power iteration is appropriate.
//
// tol is the relative change in the eigenvalue estimate at which iteration
// stops; maxIter bounds the work.
func SpectralRadius(a *Dense, tol float64, maxIter int) (float64, error) {
	if a.rows != a.cols {
		panic("matrix: SpectralRadius of non-square matrix")
	}
	n := a.rows
	if n == 0 {
		return 0, nil
	}
	// Shift by ε·I: for non-negative A, sp(A+εI) = sp(A)+ε and the Perron
	// root becomes the unique dominant eigenvalue, so power iteration
	// cannot oscillate on periodic block structure.
	shift := 0.05 * math.Max(a.InfNorm(), 1e-6)
	shifted := Sum(a, Scaled(shift, Identity(n)))
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	prev := 0.0
	for iter := 0; iter < maxIter; iter++ {
		y := MulVec(shifted, x)
		norm := 0.0
		for _, v := range y {
			norm += math.Abs(v)
		}
		if norm == 0 {
			return 0, nil // nilpotent direction: radius 0 for non-negative a
		}
		for i := range y {
			y[i] /= norm
		}
		x = y
		if iter > 0 && math.Abs(norm-prev) <= tol*math.Max(norm, 1e-300) {
			return math.Max(norm-shift, 0), nil
		}
		prev = norm
	}
	return math.Max(prev-shift, 0), ErrNoConverge
}

// GeometricTailSum returns (I − R)⁻¹ for a matrix with sp(R) < 1,
// the closed form of the series Σ_{k≥0} Rᵏ.
func GeometricTailSum(r *Dense) (*Dense, error) {
	return Inverse(Diff(Identity(r.Rows()), r))
}

// SpectralRadiusUpperBound returns a rigorous upper bound on the spectral
// radius via Gelfand's formula: sp(A) ≤ ‖A^{2^k}‖_∞^{1/2^k}, computed by
// repeated squaring with normalization to avoid overflow. With k ≈ 40 the
// bound is tight to a few parts in 10¹², and unlike power iteration it
// cannot stall on clustered or complex eigenvalues. It is the reference
// SpectralBracketWS is measured against; the bracket runs the same
// squaring chain and falls back on its partials when it cannot close.
func SpectralRadiusUpperBound(a *Dense, squarings int) float64 {
	if a.rows != a.cols {
		panic("matrix: SpectralRadiusUpperBound of non-square matrix")
	}
	if a.rows == 0 {
		return 0
	}
	n := a.rows
	m := a.Clone()
	sq := New(n, n)
	logBound := 0.0
	weight := 1.0
	for k := 0; k < squarings; k++ {
		norm := m.InfNorm()
		if norm == 0 {
			return 0
		}
		logBound += weight * math.Log(norm)
		weight /= 2
		ScaledTo(m, 1/norm, m)
		MulTo(sq, m, m)
		m, sq = sq, m
	}
	logBound += weight * math.Log(math.Max(m.InfNorm(), 1e-300))
	return math.Exp(logBound)
}

// The spectral bracket's fixed constants.
const (
	// bracketMaxSquarings caps the squaring chain; a bracket still open
	// there returns its Gelfand-40 partial (the fallback).
	bracketMaxSquarings = 40
	// bracketSteps is the number of power steps taken per squaring level.
	// Each step is one matrix–vector product at every level, so more
	// steps trade squarings for products: on the order-207 blocks of the
	// P = 8, L = 8 model, 1, 2, 3, 4 and 8 steps all timed within noise
	// of each other and 32 steps were slower.
	bracketSteps = 2
	// bracketWidth is the relative width, measured on the log scale, at
	// which the bracket counts as closed.
	bracketWidth = 1e-12
	// bracketTiny is the smallest component of M·x the bracket trusts:
	// below it a product could have underflowed, so the iterate counts
	// as no longer strictly positive.
	bracketTiny = 0x1p-900
)

// SpectralBracketWS returns lo ≤ sp(a) ≤ hi, both rigorous up to the
// rounding padding described below, with every scratch buffer drawn from
// ws (a warm workspace allocates nothing). hi is what a certificate
// records; lo only says how tight it is. limit is an early exit: the
// routine returns as soon as hi < limit, so limit = 1 asks only for a
// stability witness, and limit = 0 asks for the tight value.
//
// The bracket is Collatz–Wielandt's: for a non-negative M and any
// strictly positive x, min_i (Mx)_i/x_i ≤ sp(M) ≤ max_i (Mx)_i/x_i.
//
//  1. Deflation. M = |a|, because sp(a) ≤ sp(|a|). An index whose row is
//     zero on the kept indices is dropped, repeatedly: the matrix is then
//     block triangular with a nilpotent remainder, so sp(M) = sp(M_kept),
//     and every kept row of every power of M_kept stays non-zero. If
//     nothing is kept, sp(a) = 0 exactly.
//  2. Power steps on squarings. At level t, M_t = M_kept^(2^t), kept
//     normalised to ‖M_t‖∞ = 1 with its log scale tracked as the Gelfand
//     loop does. bracketSteps power steps y = M_t·x each give a bracket
//     on sp(M_t); its 2^-t root brackets sp(a). The best ends are kept,
//     together with the Gelfand partial ‖M_t‖∞^(2^-t), which is the
//     upper end for x = 1 (at t = 0, ‖|a|‖∞ over the kept indices).
//  3. x is carried across squarings. Every power shares the Perron
//     vector, so each squaring doubles the effective number of power
//     steps, and the 2^-t root shrinks the bracket's log width by 2^-t.
//  4. The routine stops once the log width is ≤ bracketWidth. If that
//     has not happened after bracketMaxSquarings squarings, or if x
//     loses strict positivity (a component of M_t·x below bracketTiny),
//     the chain runs on to its Gelfand-40 partial and hi is the smaller
//     of that and the best Collatz–Wielandt upper end.
//
// Rounding: with non-negative operands every computed product has
// relative error at most γ_k ≈ k·u per entry, and errors compound to at
// most (2^t − 1)(γ_k + u) by level t, which the 2^-t root divides back
// down to γ_k + u; logarithms add u per unit of log magnitude. hi and lo
// are widened by exp(±slack) to cover both.
func SpectralBracketWS(a *Dense, limit float64, ws *Workspace) (lo, hi float64) {
	lo, hi, _, _ = spectralBracket(a, limit, ws)
	return lo, hi
}

// spectralBracket is SpectralBracketWS that also reports how many
// squarings it took and whether the bracket closed (false: the
// Gelfand-40 fallback, a lost positive iterate, or the limit exit).
func spectralBracket(a *Dense, limit float64, ws *Workspace) (lo, hi float64, squarings int, closed bool) {
	if a.rows != a.cols {
		panic("matrix: SpectralBracket of non-square matrix")
	}
	n := a.rows
	switch {
	case n == 0:
		return 0, 0, 0, true
	case n == 1:
		if v := math.Abs(a.data[0]); v <= math.MaxFloat64 {
			return v, v, 0, true
		}
		return 0, math.Inf(1), 0, false
	}
	// Deflation by counting: cnt[i] is the number of non-zero entries of
	// row i among kept columns (-1 once i is dropped); stack holds the
	// dropped indices whose columns are not yet discounted, then the kept
	// indices; once M_kept is filled they become x and y. All scratch
	// comes from three n×n matrices, the shape the R ladder and its
	// certificate already keep in ws, so even a cold bracket adds no
	// buffer to a solve: cnt and stack are the first two rows of one,
	// and M_kept and its square the leading k×k of the others.
	vecBuf, mBuf, sqBuf := ws.Get(n, n), ws.Get(n, n), ws.Get(n, n)
	defer ws.Put(vecBuf, mBuf, sqBuf)
	cnt, stack := vecBuf.data[:n], vecBuf.data[n:2*n]
	top := 0
	for i := 0; i < n; i++ {
		c := 0
		for _, v := range a.data[i*n : (i+1)*n] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return 0, math.Inf(1), 0, false
			}
			if v != 0 {
				c++
			}
		}
		cnt[i] = float64(c)
		if c == 0 {
			cnt[i] = -1
			stack[top] = float64(i)
			top++
		}
	}
	for top > 0 {
		top--
		j := int(stack[top])
		for i := 0; i < n; i++ {
			if cnt[i] > 0 && a.data[i*n+j] != 0 {
				if cnt[i]--; cnt[i] == 0 {
					cnt[i] = -1
					stack[top] = float64(i)
					top++
				}
			}
		}
	}
	k := 0
	for i := 0; i < n; i++ {
		if cnt[i] > 0 {
			stack[k] = float64(i)
			k++
		}
	}
	if k == 0 {
		return 0, 0, 0, true
	}
	mv := Dense{rows: k, cols: k, data: mBuf.data[:k*k]}
	sv := Dense{rows: k, cols: k, data: sqBuf.data[:k*k]}
	m, sq := &mv, &sv
	for p := 0; p < k; p++ {
		row := a.data[int(stack[p])*n:]
		mp := m.data[p*k : (p+1)*k]
		for q := range mp {
			mp[q] = math.Abs(row[int(stack[q])])
		}
	}
	x, y := cnt[:k], stack[:k]
	for i := range x {
		x[i] = 1
	}

	const u = 0x1p-53
	loLog, hiLog := math.Inf(-1), math.Inf(1)
	logScale, logMag, w := 0.0, 0.0, 1.0
	positive := true
	// bounds widens the log-scale ends by the rounding slack.
	bounds := func() {
		slack := float64(2*k+8)*u + 4*u*(logMag+math.Abs(hiLog))
		hi = math.Exp(hiLog + slack)
		lo = math.Min(math.Exp(loLog-slack), hi)
	}
	t := 0
	for ; ; t++ {
		norm := m.InfNorm()
		if !(norm > 0) || math.IsInf(norm, 0) {
			// Everything underflowed (t > 0) or |a| overflows the row
			// sums: the ends proven so far are all there is.
			break
		}
		ln := math.Log(norm)
		logScale += w * ln
		logMag += w * math.Abs(ln)
		ScaledTo(m, 1/norm, m)
		hiLog = math.Min(hiLog, logScale) // Gelfand partial: ‖M_t‖∞ = 1 now
		for s := 0; positive && s < bracketSteps; s++ {
			MulVecTo(y, m, x)
			rmin, rmax, ymax := math.Inf(1), 0.0, 0.0
			for i, yi := range y {
				if !(yi >= bracketTiny) {
					positive = false
					break
				}
				r := yi / x[i]
				rmin = math.Min(rmin, r)
				rmax = math.Max(rmax, r)
				ymax = math.Max(ymax, yi)
			}
			if !positive {
				break
			}
			hiLog = math.Min(hiLog, logScale+w*math.Log(rmax))
			loLog = math.Max(loLog, logScale+w*math.Log(rmin))
			if hiLog-loLog <= bracketWidth {
				bounds()
				return lo, hi, t, true
			}
			for i, yi := range y {
				x[i] = yi / ymax
			}
		}
		bounds()
		if hi < limit || t == bracketMaxSquarings {
			break
		}
		MulTo(sq, m, m)
		m, sq = sq, m
		w /= 2
	}
	bounds()
	return lo, hi, t, false
}
