//go:build amd64

package matrix

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The static dispatch promise: both assembly panel kernels (sse2, avx2)
// produce exactly the pure-Go panel's bits, so which one the CPU check
// selects never changes a result.

type panelFunc func(ci, b []float64, ldb int, a *[8]float64)

type namedPanel struct {
	name string
	fn   panelFunc
}

// asmPanel adapts an assembly kernel to the slice signature of
// axpyPanel8Go.
func asmPanel(k func(ci, b *float64, ldb, n int, a *[8]float64)) panelFunc {
	return func(ci, b []float64, ldb int, a *[8]float64) {
		if len(ci) > 0 {
			k(&ci[0], &b[0], ldb, len(ci), a)
		}
	}
}

// cpuPanels lists the panel kernels this CPU can run, fastest first.
func cpuPanels() []namedPanel {
	ks := []namedPanel{}
	if useAVX2 {
		ks = append(ks, namedPanel{"avx2", asmPanel(axpyPanel8AVX2)})
	}
	return append(ks, namedPanel{"sse2", asmPanel(axpyPanel8SSE2)}, namedPanel{"go", axpyPanel8Go})
}

func randPanel(rng *rand.Rand, n, ldb int) (ci, b []float64, a [8]float64) {
	b = make([]float64, 8*ldb)
	for i := range b {
		b[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(20)-10)
	}
	for i := range a {
		a[i] = rng.Float64() - 0.5
	}
	ci = make([]float64, n)
	for i := range ci {
		ci[i] = rng.Float64() - 0.5
	}
	return ci, b, a
}

func TestPanelKernelsBitwiseIdenticalGo(t *testing.T) {
	if !useAVX2 {
		t.Log("avx2 unsupported on this CPU; checking sse2 only")
	}
	for _, k := range cpuPanels() {
		if k.name == "go" {
			continue
		}
		rng := rand.New(rand.NewSource(21))
		for n := 0; n <= 40; n++ { // every octa/quad/pair/scalar tail mix
			ldb := n + rng.Intn(4) + 1
			ci, b, a := randPanel(rng, n, ldb)
			want := append([]float64(nil), ci...)
			axpyPanel8Go(want, b, ldb, &a)
			k.fn(ci, b, ldb, &a)
			for i := range ci {
				if math.Float64bits(ci[i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s n=%d ldb=%d: [%d] = %x, want %x (values %g vs %g)",
						k.name, n, ldb, i, math.Float64bits(ci[i]), math.Float64bits(want[i]),
						ci[i], want[i])
				}
			}
		}
	}
}

// panelProduct computes dst = a·b for an all-nonzero a whose column
// count is a multiple of eight, one eight-term panel at a time through
// kernel k — the panel work of MulTo without the zero-skip branches.
func panelProduct(dst, a, b *Dense, k panelFunc) {
	dst.Zero()
	n := b.cols
	for i := 0; i < a.rows; i++ {
		ci := dst.data[i*n : (i+1)*n]
		ai := a.data[i*a.cols : (i+1)*a.cols]
		for p := 0; p+7 < a.cols; p += 8 {
			k(ci, b.data[p*n:], n, (*[8]float64)(ai[p:p+8]))
		}
	}
}

// BenchmarkPanelKernel is the kernel A/B: the same all-nonzero dense
// product through every panel kernel this CPU supports (avx2/sse2/go).
// `make bench-scale` runs it to put AVX2-vs-SSE2 numbers in
// BENCH_scale.json; the orders bracket the QBD block sizes the solver
// actually multiplies.
func BenchmarkPanelKernel(b *testing.B) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{48, 120} {
		a := randDense(rng, n, n, 1.0)
		c := randDense(rng, n, n, 1.0)
		for _, k := range cpuPanels() {
			b.Run(fmt.Sprintf("n%d/%s", n, k.name), func(b *testing.B) {
				dst := New(n, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					panelProduct(dst, a, c, k.fn)
				}
			})
		}
	}
}
