// Package linalg provides the small linear-algebra kernel used by
// Caladrius' forecasting models: a dense matrix for the normal
// equations, Cholesky factorisation, and ridge-regularised Huber
// regression by iteratively re-weighted least squares over a design
// whose rows the caller writes on demand, so no fit holds its design
// matrix. It also holds the sample statistics (quantiles, mean,
// standard deviation) that the models and the experiments read.
//
// The package is deliberately minimal — it implements exactly what the
// Prophet-substitute in internal/forecast requires — but each routine is
// numerically careful (symmetric rank-k accumulation, jitter on
// near-singular systems) and fully tested.
package linalg

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// ErrSingular is returned when a system is singular to working
// precision and cannot be solved even with jitter.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// ErrShape is returned when operand dimensions are incompatible.
var ErrShape = errors.New("linalg: incompatible dimensions")

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix allocates a zero matrix with the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("linalg: negative dimension %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (not a copy).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Cholesky computes the lower-triangular factor L with A = L·Lᵀ for a
// symmetric positive-definite A. It returns ErrSingular if A is not
// positive definite to working precision.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("%w: cholesky of %dx%d", ErrShape, a.Rows, a.Cols)
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for j := 0; j < n; j++ {
		d := a.At(j, j)
		for k := 0; k < j; k++ {
			ljk := l.At(j, k)
			d -= ljk * ljk
		}
		if d <= 0 || math.IsNaN(d) {
			return nil, fmt.Errorf("%w: pivot %d is %g", ErrSingular, j, d)
		}
		dj := math.Sqrt(d)
		l.Set(j, j, dj)
		for i := j + 1; i < n; i++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			l.Set(i, j, s/dj)
		}
	}
	return l, nil
}

// SolveCholesky solves A·x = b given the Cholesky factor L of A.
func SolveCholesky(l *Matrix, b []float64) ([]float64, error) {
	n := l.Rows
	if len(b) != n {
		return nil, fmt.Errorf("%w: rhs %d, matrix %dx%d", ErrShape, len(b), n, n)
	}
	// Forward substitution: L·y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		row := l.Row(i)
		for k := 0; k < i; k++ {
			s -= row[k] * y[k]
		}
		y[i] = s / row[i]
	}
	// Back substitution: Lᵀ·x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// SolveSPD solves A·x = b for symmetric positive-definite A, retrying
// with diagonal jitter if the factorisation fails marginally.
func SolveSPD(a *Matrix, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		// Jitter proportional to the largest diagonal entry.
		var maxDiag float64
		for i := 0; i < a.Rows; i++ {
			if d := math.Abs(a.At(i, i)); d > maxDiag {
				maxDiag = d
			}
		}
		if maxDiag == 0 {
			maxDiag = 1
		}
		jittered := a.Clone()
		jitter := maxDiag * 1e-10
		for attempt := 0; attempt < 6; attempt++ {
			for i := 0; i < jittered.Rows; i++ {
				jittered.Set(i, i, a.At(i, i)+jitter)
			}
			if l, err = Cholesky(jittered); err == nil {
				break
			}
			jitter *= 100
		}
		if err != nil {
			return nil, err
		}
	}
	return SolveCholesky(l, b)
}

// Huber regression's IRLS constants. Residuals within huberDelta times
// the residual scale (MAD-based) get weight 1; beyond it weights decay
// as huberDelta·scale/|r|. 1.345 is the threshold of 95% Gaussian
// efficiency. The iterations stop after huberMaxIter, or once the
// coefficients move by less than huberTol in total.
const (
	huberDelta   = 1.345
	huberMaxIter = 25
	huberTol     = 1e-8
)

// RowSource writes row i of a design matrix into dst, whose length is
// the column count, so that a regression can rebuild its rows on every
// pass instead of holding all of them.
type RowSource func(i int, dst []float64)

// HuberRegression fits β (cols coefficients) minimising the Huber loss
// of X·β − y via IRLS, where rows writes row i of X and y has one value
// per row. Column 0 is the intercept: the ridge penalty lambda applies
// to every other coefficient, at every iteration. A penalised intercept
// would offset every residual alike, and the MAD scale, seeing no
// spread, would weight every point as an outlier. The fit is robust to
// a moderate fraction of gross outliers in y.
func HuberRegression(rows RowSource, cols int, y []float64, lambda float64) ([]float64, error) {
	if lambda < 0 {
		return nil, fmt.Errorf("linalg: negative ridge penalty %g", lambda)
	}
	row := make([]float64, cols)
	g := NewMatrix(cols, cols)
	rhs := make([]float64, cols)
	w := make([]float64, len(y))
	for i := range w {
		w[i] = 1
	}
	beta, err := weightedRidge(rows, row, y, w, lambda, g, rhs)
	if err != nil {
		return nil, err
	}
	resid := make([]float64, len(y))
	scratch := make([]float64, len(y))
	for iter := 0; iter < huberMaxIter; iter++ {
		for i := range resid {
			rows(i, row)
			var s float64
			for j, v := range row {
				s += v * beta[j]
			}
			resid[i] = y[i] - s
		}
		scale := mad(resid, scratch) * 1.4826
		if scale < 1e-12 {
			return beta, nil // perfect fit to working precision
		}
		thresh := huberDelta * scale
		for i, r := range resid {
			if ar := math.Abs(r); ar <= thresh {
				w[i] = 1
			} else {
				w[i] = thresh / ar
			}
		}
		next, err := weightedRidge(rows, row, y, w, lambda, g, rhs)
		if err != nil {
			return nil, err
		}
		var change float64
		for i := range next {
			change += math.Abs(next[i] - beta[i])
		}
		beta = next
		if change < huberTol {
			break
		}
	}
	return beta, nil
}

// weightedRidge solves min Σ wᵢ(Xᵢ·β − yᵢ)² + λ‖β₁…‖², the intercept
// β₀ unpenalised. One pass over the rows, each written into row,
// accumulates Xᵀ·W·X (its upper triangle, then mirrored) into g and
// Xᵀ·W·y into rhs.
func weightedRidge(rows RowSource, row, y, w []float64, lambda float64, g *Matrix, rhs []float64) ([]float64, error) {
	clear(g.Data)
	clear(rhs)
	n := g.Cols
	for r, wr := range w {
		if wr == 0 {
			continue
		}
		rows(r, row)
		for i, v := range row {
			vi := wr * v
			if vi == 0 {
				continue
			}
			tail := row[i:]
			gi := g.Data[i*n+i:][:len(tail)]
			for j, t := range tail {
				gi[j] += vi * t
			}
		}
		if wy := wr * y[r]; wy != 0 {
			for j, v := range row {
				rhs[j] += v * wy
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.Set(j, i, g.At(i, j))
		}
		if i > 0 {
			g.Set(i, i, g.At(i, i)+lambda)
		}
	}
	return SolveSPD(g, rhs)
}

// mad is the median absolute deviation of xs from its median. It sorts
// in scratch, which has the length of xs.
func mad(xs, scratch []float64) float64 {
	copy(scratch, xs)
	slices.Sort(scratch)
	med := QuantileSorted(scratch, 0.5)
	for i, v := range xs {
		scratch[i] = math.Abs(v - med)
	}
	slices.Sort(scratch)
	return QuantileSorted(scratch, 0.5)
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics. It does not mutate xs.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	if q <= 0 {
		return minOf(xs)
	}
	if q >= 1 {
		return maxOf(xs)
	}
	cp := append([]float64(nil), xs...)
	slices.Sort(cp)
	return QuantileSorted(cp, q)
}

// QuantileSorted is Quantile for xs already sorted ascending, so that
// several quantiles of one sample cost one sort.
func QuantileSorted(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := min(max(q, 0), 1) * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return xs[lo]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[hi]*frac
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, v := range xs[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Mean returns the arithmetic mean of xs, or NaN when empty.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Stddev returns the sample standard deviation (n−1 denominator).
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, v := range xs {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// LinearFitThroughOrigin fits y = b·x (no intercept), appropriate when
// the physical relationship is proportional, e.g. CPU load per input
// rate in Caladrius' CPU model.
func LinearFitThroughOrigin(x, y []float64) (b float64, err error) {
	if len(x) != len(y) {
		return 0, fmt.Errorf("%w: x %d, y %d", ErrShape, len(x), len(y))
	}
	var sxx, sxy float64
	for i := range x {
		sxx += x[i] * x[i]
		sxy += x[i] * y[i]
	}
	if sxx == 0 {
		return 0, fmt.Errorf("%w: all x zero", ErrSingular)
	}
	return sxy / sxx, nil
}
