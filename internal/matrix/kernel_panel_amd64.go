//go:build amd64

package matrix

// The assembly panel kernels. Both share one contract:
// ci[j] = ci[j] + a[0]·b[j] + a[1]·b[ldb+j] + … + a[7]·b[7·ldb+j] for
// j in [0, n). They associate the adds left exactly like the pure-Go
// panel — every element sees the identical rounded-operation sequence —
// so the asm changes throughput, never bits, and selection is a
// one-time CPU check exactly like the LU kernels.
//
//go:noescape
func axpyPanel8SSE2(ci *float64, b *float64, ldb, n int, a *[8]float64)

//go:noescape
func axpyPanel8AVX2(ci *float64, b *float64, ldb, n int, a *[8]float64)

func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// hasAVX2 reports whether the CPU and the OS together support AVX2:
// CPUID.1:ECX must advertise OSXSAVE and AVX, XCR0 must show the OS
// saves both XMM and YMM state, and CPUID.7.0:EBX must advertise AVX2.
func hasAVX2() bool {
	maxID, _, _, _ := cpuid(0, 0)
	if maxID < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const osxsave = 1 << 27
	const avx = 1 << 28
	if ecx1&osxsave == 0 || ecx1&avx == 0 {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0x6 != 0x6 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	return ebx7&(1<<5) != 0
}

// useAVX2 gates the 4-lane panel and LU kernels; the 2-lane SSE2
// kernels are the amd64 baseline.
var useAVX2 = hasAVX2()

// axpyPanel8 accumulates the 8-row coefficient panel into ci.
func axpyPanel8(ci, b []float64, ldb int, a *[8]float64) {
	if len(ci) == 0 {
		return
	}
	if useAVX2 {
		axpyPanel8AVX2(&ci[0], &b[0], ldb, len(ci), a)
	} else {
		axpyPanel8SSE2(&ci[0], &b[0], ldb, len(ci), a)
	}
}
