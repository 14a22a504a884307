//go:build !amd64

package matrix

// axpyPanel8 accumulates the 8-row coefficient panel into ci — the
// portable counterpart of the amd64 kernels, same left-associated
// per-element operation sequence.
func axpyPanel8(ci, b []float64, ldb int, a *[8]float64) {
	axpyPanel8Go(ci, b, ldb, a)
}
