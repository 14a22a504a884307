package matrix

// BlockOp is the pluggable representation of one repeating QBD generator
// block. The solver ladder, residual certification and boundary solve are
// written against this interface, so a block can be a plain dense matrix
// or a CSR sparse matrix without the numeric pipeline knowing which.
//
// Every implementation is pinned bitwise against the dense reference: for
// any operator op and any conforming dense operands, op.MulDenseTo,
// op.MulFromLeftTo and op.AddScaledTo produce bit-for-bit the result of
// MulTo/AddTo against op.Dense(). The pins rest on two properties of the
// dense kernels: mulKernel accumulates ascending k and skips zero left
// coefficients (so skipping structurally absent terms changes nothing),
// and MulTo output never contains -0 (dst is zeroed to +0 and
// round-to-nearest gives (+0)+(-0) = +0), so commuting x+y at AddScaledTo
// call sites and skipping zero entries are value-preserving.
//
// Implementations are not safe for concurrent first use: lazy caches
// (the CSR dense materialization) are unsynchronized, matching the
// Workspace discipline of one owner per solve.
type BlockOp interface {
	// Dims returns the block's row and column counts.
	Dims() (rows, cols int)
	// At returns the entry at (i, j).
	At(i, j int) float64
	// NNZ returns the number of structurally non-zero entries.
	NNZ() int
	// Density returns NNZ over the full entry count.
	Density() float64
	// InfNorm returns the maximum absolute row sum.
	InfNorm() float64
	// RowSums returns the signed row sums.
	RowSums() []float64
	// Dense returns a dense view of the operator. The view may be the
	// operator's own backing storage or a cached materialization; callers
	// must not mutate it.
	Dense() *Dense
	// Scaled returns c·op as a new operator. The result's entries are
	// fl(c·v) — bitwise the entries of ScaledTo(·, c, op.Dense()).
	Scaled(c float64) BlockOp
	// MulDenseTo computes dst = op·B and returns dst.
	MulDenseTo(dst, b *Dense) *Dense
	// MulFromLeftTo computes dst = A·op and returns dst.
	MulFromLeftTo(dst, a *Dense) *Dense
	// AddScaledTo accumulates dst += s·op over the operator's stored
	// entries (zero entries are skipped).
	AddScaledTo(dst *Dense, s float64)
}

// DefaultAdoptMaxDensity is the default nnz fraction at or below which
// AdoptOp represents a block as CSR rather than dense. 25% is where the
// CSR row products stop paying for their index indirection on the panel
// kernels (see BENCH_kernel.json history).
const DefaultAdoptMaxDensity = 0.25

// Op wraps a dense matrix as a BlockOp without copying.
func Op(d *Dense) BlockOp { return &DenseBlock{d: d} }

// AdoptOp chooses a representation for d by density: CSR when the nnz
// fraction is at or below maxDensity (≤ 0 means DefaultAdoptMaxDensity),
// dense otherwise. The dense origin is retained either way, so Dense()
// is always free.
func AdoptOp(d *Dense, maxDensity float64) BlockOp {
	if maxDensity <= 0 {
		maxDensity = DefaultAdoptMaxDensity
	}
	s := FromDense(d)
	if s.Density() <= maxDensity {
		return &CSRBlock{s: s, origin: d}
	}
	return &DenseBlock{d: d}
}

// ReadoptOp re-certifies an operator's representation after its dense
// origin was refilled in place. A CSR operator whose sparsity pattern is
// unchanged is refilled in place (zero allocation — the Session refill
// path); any other case re-adopts from the origin by density.
func ReadoptOp(op BlockOp, maxDensity float64) BlockOp {
	if c, ok := op.(*CSRBlock); ok && c.origin != nil {
		if c.Refill(c.origin) {
			return c
		}
		return AdoptOp(c.origin, maxDensity)
	}
	return AdoptOp(op.Dense(), maxDensity)
}

// DenseBlock is the reference BlockOp: a plain dense matrix.
type DenseBlock struct {
	d *Dense
}

// Dims returns the block's dimensions.
func (b *DenseBlock) Dims() (int, int) { return b.d.rows, b.d.cols }

// At returns the entry at (i, j).
func (b *DenseBlock) At(i, j int) float64 { return b.d.At(i, j) }

// NNZ counts the non-zero entries.
func (b *DenseBlock) NNZ() int {
	n := 0
	for _, v := range b.d.data {
		if v != 0 {
			n++
		}
	}
	return n
}

// Density returns the non-zero fraction.
func (b *DenseBlock) Density() float64 {
	if len(b.d.data) == 0 {
		return 0
	}
	return float64(b.NNZ()) / float64(len(b.d.data))
}

// InfNorm returns the maximum absolute row sum.
func (b *DenseBlock) InfNorm() float64 { return b.d.InfNorm() }

// RowSums returns the signed row sums.
func (b *DenseBlock) RowSums() []float64 { return b.d.RowSums() }

// Dense returns the backing matrix.
func (b *DenseBlock) Dense() *Dense { return b.d }

// Scaled returns c·b as a new dense operator.
func (b *DenseBlock) Scaled(c float64) BlockOp {
	return &DenseBlock{d: ScaledTo(New(b.d.rows, b.d.cols), c, b.d)}
}

// MulDenseTo computes dst = b·B.
func (b *DenseBlock) MulDenseTo(dst, x *Dense) *Dense { return MulTo(dst, b.d, x) }

// MulFromLeftTo computes dst = A·b.
func (b *DenseBlock) MulFromLeftTo(dst, a *Dense) *Dense { return MulTo(dst, a, b.d) }

// AddScaledTo accumulates dst += s·b, skipping zero entries — the same
// entry set a CSR representation of b would visit.
func (b *DenseBlock) AddScaledTo(dst *Dense, s float64) {
	addScaledDense(dst, b.d, s)
}

func addScaledDense(dst, d *Dense, s float64) {
	if dst.rows != d.rows || dst.cols != d.cols {
		panic("matrix: AddScaledTo dimension mismatch")
	}
	for i, v := range d.data {
		if v != 0 {
			dst.data[i] += s * v
		}
	}
}

// CSRBlock is a BlockOp backed by a CSR matrix, normally adopted from a
// dense origin by AdoptOp. Products against it skip structural zeros in
// the exact ascending order of the dense kernels, so results are bitwise
// the dense reference.
type CSRBlock struct {
	s *Sparse
	// origin is the dense matrix this block was adopted from, when known.
	// It doubles as the Dense() view and as the refill source.
	origin *Dense
	// mat caches the materialization when origin is unknown (e.g. after
	// Scaled).
	mat *Dense
}

// Dims returns the block's dimensions.
func (b *CSRBlock) Dims() (int, int) { return b.s.rows, b.s.cols }

// At returns the entry at (i, j).
func (b *CSRBlock) At(i, j int) float64 { return b.s.At(i, j) }

// NNZ returns the stored entry count.
func (b *CSRBlock) NNZ() int { return b.s.NNZ() }

// Density returns the stored-entry fraction.
func (b *CSRBlock) Density() float64 { return b.s.Density() }

// CSR returns the backing sparse matrix.
func (b *CSRBlock) CSR() *Sparse { return b.s }

// InfNorm returns the maximum absolute row sum. Summing only stored
// entries in ascending column order is bitwise the dense row sweep:
// the accumulator is never -0, so the skipped fl(acc+0) terms are
// identities.
func (b *CSRBlock) InfNorm() float64 {
	max := 0.0
	for i := 0; i < b.s.rows; i++ {
		t := 0.0
		for p := b.s.rowPtr[i]; p < b.s.rowPtr[i+1]; p++ {
			v := b.s.val[p]
			if v < 0 {
				v = -v
			}
			t += v
		}
		if t > max {
			max = t
		}
	}
	return max
}

// RowSums returns the signed row sums (same bitwise argument as InfNorm).
func (b *CSRBlock) RowSums() []float64 {
	sums := make([]float64, b.s.rows)
	for i := 0; i < b.s.rows; i++ {
		t := 0.0
		for p := b.s.rowPtr[i]; p < b.s.rowPtr[i+1]; p++ {
			t += b.s.val[p]
		}
		sums[i] = t
	}
	return sums
}

// Dense returns the adoption origin when known, else a cached
// materialization.
func (b *CSRBlock) Dense() *Dense {
	if b.origin != nil {
		return b.origin
	}
	if b.mat == nil {
		b.mat = b.s.ToDense()
	}
	return b.mat
}

// Scaled returns c·b as a new CSR operator.
func (b *CSRBlock) Scaled(c float64) BlockOp {
	return &CSRBlock{s: b.s.Scaled(c)}
}

// MulDenseTo computes dst = b·B via the CSR row kernel.
func (b *CSRBlock) MulDenseTo(dst, x *Dense) *Dense { return b.s.MulDenseTo(dst, x) }

// MulFromLeftTo computes dst = A·b via the dense-times-CSR kernel.
func (b *CSRBlock) MulFromLeftTo(dst, a *Dense) *Dense { return MulCSRTo(dst, a, b.s) }

// AddScaledTo accumulates dst += s·b over the stored entries.
func (b *CSRBlock) AddScaledTo(dst *Dense, s float64) {
	if dst.rows != b.s.rows || dst.cols != b.s.cols {
		panic("matrix: AddScaledTo dimension mismatch")
	}
	for i := 0; i < b.s.rows; i++ {
		row := dst.data[i*dst.cols : (i+1)*dst.cols]
		for p := b.s.rowPtr[i]; p < b.s.rowPtr[i+1]; p++ {
			row[b.s.colIdx[p]] += s * b.s.val[p]
		}
	}
}

// Refill re-reads values from d, which must have the exact sparsity
// pattern this block was built with. It returns false (leaving the block
// unusable until re-adopted) when the pattern differs — the caller then
// falls back to a fresh AdoptOp. On success the block's values are
// updated in place with zero allocation and d becomes the new origin.
func (b *CSRBlock) Refill(d *Dense) bool {
	if d.rows != b.s.rows || d.cols != b.s.cols {
		return false
	}
	p := 0
	for i := 0; i < d.rows; i++ {
		row := d.data[i*d.cols : (i+1)*d.cols]
		for j, v := range row {
			if v == 0 {
				continue
			}
			if p >= b.s.rowPtr[i+1] || b.s.colIdx[p] != j {
				return false
			}
			b.s.val[p] = v
			p++
		}
		if p != b.s.rowPtr[i+1] {
			return false
		}
	}
	b.origin = d
	b.mat = nil
	return true
}
