//go:build amd64

package matrix

// The assembly LU kernels. All variants keep the exact per-element
// (elimRow) or per-column-lane (fwdStep8/backStep8) operation sequence
// of the Go loops — multiplies and adds stay separate instructions, the
// accumulator chains stay left-associated in term order — so SSE2, AVX2
// and Go are bitwise interchangeable and selection is a one-time CPU
// check rather than an opt-in.
//
//go:noescape
func elimRowSSE2(dst, src *float64, n int, m float64)

//go:noescape
func elimRowAVX2(dst, src *float64, n int, m float64)

//go:noescape
func fwdStep8SSE2(x, row *float64, cnt int)

//go:noescape
func fwdStep8AVX2(x, row *float64, cnt int)

//go:noescape
func backStep8SSE2(x, row *float64, cnt int, d float64)

//go:noescape
func backStep8AVX2(x, row *float64, cnt int, d float64)

func elimRow(dst, src []float64, m float64) {
	if len(dst) == 0 {
		return
	}
	if useAVX2 {
		elimRowAVX2(&dst[0], &src[0], len(dst), m)
	} else {
		elimRowSSE2(&dst[0], &src[0], len(dst), m)
	}
}

func fwdStep8(x []float64, row []float64) {
	if useAVX2 {
		fwdStep8AVX2(&x[0], rowPtr(row), len(row))
	} else {
		fwdStep8SSE2(&x[0], rowPtr(row), len(row))
	}
}

func backStep8(x []float64, row []float64, d float64) {
	if useAVX2 {
		backStep8AVX2(&x[0], rowPtr(row), len(row), d)
	} else {
		backStep8SSE2(&x[0], rowPtr(row), len(row), d)
	}
}

// rowPtr tolerates the empty coefficient row (the last back-substitution
// row has no terms above the diagonal): the kernels never dereference
// the row pointer when cnt is zero.
func rowPtr(row []float64) *float64 {
	if len(row) == 0 {
		return nil
	}
	return &row[0]
}
