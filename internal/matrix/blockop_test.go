package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// gangA0 builds a λ·I-shaped up-transition block: the arrival structure
// the gang model's class builders emit.
func gangA0(rng *rand.Rand, n int) *Dense {
	d := New(n, n)
	lam := 0.2 + rng.Float64()
	for i := 0; i < n; i++ {
		d.Set(i, i, lam)
	}
	return d
}

// gangA2 builds a sparse service-completion block: a few non-negative
// entries per row at irregular columns.
func gangA2(rng *rand.Rand, n int) *Dense {
	d := New(n, n)
	for i := 0; i < n; i++ {
		for k := 0; k < 1+rng.Intn(3); k++ {
			d.Set(i, rng.Intn(n), rng.Float64())
		}
	}
	return d
}

// gangA1 builds a banded local block with the strictly dominant negative
// diagonal the generator completion produces.
func gangA1(rng *rand.Rand, n int) *Dense {
	d := New(n, n)
	for i := 0; i < n; i++ {
		d.Set(i, (i+1)%n, 1+rng.Float64())
		if n > 4 {
			d.Set(i, (i+3)%n, rng.Float64())
		}
	}
	for i := 0; i < n; i++ {
		row := 0.0
		for j := 0; j < n; j++ {
			if j != i {
				row += d.At(i, j)
			}
		}
		d.Set(i, i, -(row + 1 + rng.Float64()))
	}
	return d
}

func denseRand(rng *rand.Rand, r, c int) *Dense {
	d := New(r, c)
	for i := range d.data {
		d.data[i] = rng.NormFloat64()
	}
	return d
}

func bitsEqual(t *testing.T, what string, got, want *Dense) {
	t.Helper()
	if got.rows != want.rows || got.cols != want.cols {
		t.Fatalf("%s: dims %dx%d, want %dx%d", what, got.rows, got.cols, want.rows, want.cols)
	}
	for i, v := range got.data {
		if math.Float64bits(v) != math.Float64bits(want.data[i]) {
			t.Fatalf("%s: entry %d = %x (%v), want %x (%v)",
				what, i, math.Float64bits(v), v, math.Float64bits(want.data[i]), want.data[i])
		}
	}
}

// checkOpPinsDense asserts every BlockOp method is bitwise the dense
// reference computed from ref (a private copy of op.Dense()).
func checkOpPinsDense(t *testing.T, what string, op BlockOp, ref *Dense, rng *rand.Rand) {
	t.Helper()
	r, c := op.Dims()
	if r != ref.rows || c != ref.cols {
		t.Fatalf("%s: Dims %dx%d, want %dx%d", what, r, c, ref.rows, ref.cols)
	}

	bitsEqual(t, what+": Dense()", op.Dense(), ref)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			if math.Float64bits(op.At(i, j)) != math.Float64bits(ref.At(i, j)) {
				t.Fatalf("%s: At(%d,%d) = %v, want %v", what, i, j, op.At(i, j), ref.At(i, j))
			}
		}
	}

	nnz := 0
	for _, v := range ref.data {
		if v != 0 {
			nnz++
		}
	}
	if op.NNZ() != nnz {
		t.Fatalf("%s: NNZ %d, want %d", what, op.NNZ(), nnz)
	}
	if math.Float64bits(op.InfNorm()) != math.Float64bits(ref.InfNorm()) {
		t.Fatalf("%s: InfNorm %v, want %v", what, op.InfNorm(), ref.InfNorm())
	}
	gotSums, wantSums := op.RowSums(), ref.RowSums()
	for i := range wantSums {
		if math.Float64bits(gotSums[i]) != math.Float64bits(wantSums[i]) {
			t.Fatalf("%s: RowSums[%d] %v, want %v", what, i, gotSums[i], wantSums[i])
		}
	}

	// op·B against the dense kernel.
	b := denseRand(rng, c, c)
	got := op.MulDenseTo(New(r, c), b)
	want := MulTo(New(r, c), ref, b)
	bitsEqual(t, what+": MulDenseTo", got, want)

	// A·op against the dense kernel.
	a := denseRand(rng, r, r)
	got = op.MulFromLeftTo(New(r, c), a)
	want = MulTo(New(r, c), a, ref)
	bitsEqual(t, what+": MulFromLeftTo", got, want)

	// dst += s·op, both against the DenseBlock reference walk and — for
	// s = 1 with a -0-free accumulator, the solver's call shape — against
	// the historical AddTo(dst, ref, dst).
	for _, s := range []float64{1, -0.5, 1.75} {
		dst := MulTo(New(r, c), a, b) // kernel output: no -0 entries
		wantDst := dst.Clone()
		op.AddScaledTo(dst, s)
		addScaledDense(wantDst, ref, s)
		bitsEqual(t, what+": AddScaledTo", dst, wantDst)
		if s == 1 {
			legacy := MulTo(New(r, c), a, b)
			AddTo(legacy, ref, legacy)
			bitsEqual(t, what+": AddScaledTo vs AddTo", dst, legacy)
		}
	}

	// Scaled against the dense entrywise scale.
	sc := 1 / (3 + rng.Float64())
	bitsEqual(t, what+": Scaled", op.Scaled(sc).Dense(), ScaledTo(New(r, c), sc, ref))
}

func TestBlockOpImplementationsPinDense(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 3, 8, 17, 24} {
		for trial := 0; trial < 4; trial++ {
			for _, gen := range []struct {
				name string
				mk   func(*rand.Rand, int) *Dense
			}{{"a0", gangA0}, {"a2", gangA2}, {"a1", gangA1}} {
				d := gen.mk(rng, n)
				ref := d.Clone()
				checkOpPinsDense(t, gen.name+"/dense", Op(d), ref, rng)
				checkOpPinsDense(t, gen.name+"/csr", AdoptOp(d, 1), ref, rng)
			}
		}
	}
}

func TestAdoptOpChoosesByDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sparse := gangA0(rng, 12) // density 1/12
	if _, ok := AdoptOp(sparse, 0).(*CSRBlock); !ok {
		t.Fatalf("diagonal block not adopted as CSR at default threshold")
	}
	dense := denseRand(rng, 12, 12)
	if _, ok := AdoptOp(dense, 0).(*DenseBlock); !ok {
		t.Fatalf("full block not kept dense at default threshold")
	}
	if _, ok := AdoptOp(dense, 1).(*CSRBlock); !ok {
		t.Fatalf("maxDensity=1 must force CSR")
	}
}

func TestCSRBlockRefillInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := gangA2(rng, 10)
	op := AdoptOp(d, 1).(*CSRBlock)

	// Refill with the same pattern, new values: must succeed in place and
	// track the new values bitwise.
	for i := range d.data {
		if d.data[i] != 0 {
			d.data[i] = rng.Float64() + 0.1
		}
	}
	if !op.Refill(d) {
		t.Fatal("same-pattern refill rejected")
	}
	checkOpPinsDense(t, "refilled csr", op, d.Clone(), rng)

	// ReadoptOp on an unchanged pattern must return the same operator.
	if got := ReadoptOp(op, 1); got != BlockOp(op) {
		t.Fatal("ReadoptOp rebuilt a CSR block whose pattern is unchanged")
	}

	// Pattern change: a zero became non-zero. Refill must reject and
	// ReadoptOp must fall back to a fresh adoption that matches.
	var zi int
	for i, v := range d.data {
		if v == 0 {
			zi = i
			break
		}
	}
	d.data[zi] = 3.25
	if op.Refill(d) {
		t.Fatal("pattern-changing refill accepted")
	}
	re := ReadoptOp(op, 1)
	if re == BlockOp(op) {
		t.Fatal("ReadoptOp kept a stale-pattern CSR block")
	}
	checkOpPinsDense(t, "re-adopted csr", re, d.Clone(), rng)

	// An entry dropping to zero also changes the pattern.
	d2 := gangA2(rng, 10)
	op2 := AdoptOp(d2, 1).(*CSRBlock)
	for i, v := range d2.data {
		if v != 0 {
			d2.data[i] = 0
			break
		}
	}
	if op2.Refill(d2) {
		t.Fatal("entry-dropping refill accepted")
	}
	checkOpPinsDense(t, "re-adopted csr drop", ReadoptOp(op2, 1), d2.Clone(), rng)
}
