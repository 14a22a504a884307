//go:build amd64

package matrix

import (
	"math"
	"math/rand"
	"testing"
)

// The LU substitution/elimination kernels promise bitwise equality
// across every variant — Go, SSE2 and AVX2 — because each element (or
// column lane) keeps its own serial rounded-operation chain. These
// tests pin that promise on randomized lengths covering all the vector
// tails, including the empty coefficient row of the last
// back-substitution step.

func randSlice(rng *rand.Rand, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		if rng.Float64() < 0.1 {
			continue // exact zero, exercises ±0 handling
		}
		s[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(20)-10)
	}
	return s
}

func sliceBitsEqual(t *testing.T, ctx string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %x, want %x (values %g vs %g)",
				ctx, i, math.Float64bits(got[i]), math.Float64bits(want[i]), got[i], want[i])
		}
	}
}

func TestElimRowKernelsBitwiseIdenticalGo(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(21) // quad/pair/scalar tails all hit
		src := randSlice(rng, n)
		m := (rng.Float64() - 0.5) * 4
		base := randSlice(rng, n)

		want := append([]float64(nil), base...)
		elimRowGo(want, src, m)

		sse := append([]float64(nil), base...)
		elimRowSSE2(&sse[0], &src[0], n, m)
		sliceBitsEqual(t, "elimRowSSE2", sse, want)

		if useAVX2 {
			avx := append([]float64(nil), base...)
			elimRowAVX2(&avx[0], &src[0], n, m)
			sliceBitsEqual(t, "elimRowAVX2", avx, want)
		}
	}
}

func TestSubstitutionKernelsBitwiseIdenticalGo(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for trial := 0; trial < 200; trial++ {
		cnt := rng.Intn(17) // includes cnt = 0: the last back-substitution row
		row := randSlice(rng, cnt)
		d := 1 + rng.Float64()*3
		x := randSlice(rng, (cnt+1)*8)

		fwdWant := append([]float64(nil), x...)
		fwdStep8Go(fwdWant, row)
		fwdSSE := append([]float64(nil), x...)
		fwdStep8SSE2(&fwdSSE[0], rowPtr(row), cnt)
		sliceBitsEqual(t, "fwdStep8SSE2", fwdSSE, fwdWant)

		backWant := append([]float64(nil), x...)
		backStep8Go(backWant, row, d)
		backSSE := append([]float64(nil), x...)
		backStep8SSE2(&backSSE[0], rowPtr(row), cnt, d)
		sliceBitsEqual(t, "backStep8SSE2", backSSE, backWant)

		if useAVX2 {
			fwdAVX := append([]float64(nil), x...)
			fwdStep8AVX2(&fwdAVX[0], rowPtr(row), cnt)
			sliceBitsEqual(t, "fwdStep8AVX2", fwdAVX, fwdWant)

			backAVX := append([]float64(nil), x...)
			backStep8AVX2(&backAVX[0], rowPtr(row), cnt, d)
			sliceBitsEqual(t, "backStep8AVX2", backAVX, backWant)
		}
	}
}
