// Package linalg provides the small dense linear-algebra kernel used by
// Caladrius' forecasting models: column-major-free dense matrices,
// Cholesky factorisation, ordinary and ridge least squares, and
// iteratively re-weighted least squares with Huber weights for
// outlier-robust regression.
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

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	t := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Data[j*t.Cols+i] = m.Data[i*m.Cols+j]
		}
	}
	return t
}

// MulVec returns m·x for a vector x of length m.Cols.
func (m *Matrix) MulVec(x []float64) ([]float64, error) {
	if m.Cols != len(x) {
		return nil, fmt.Errorf("%w: (%dx%d)·vec(%d)", ErrShape, m.Rows, m.Cols, len(x))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// Gram computes mᵀ·m exploiting symmetry.
func (m *Matrix) Gram() *Matrix {
	n := m.Cols
	g := NewMatrix(n, n)
	for r := 0; r < m.Rows; r++ {
		row := m.Row(r)
		for i := 0; i < n; i++ {
			vi := row[i]
			if vi == 0 {
				continue
			}
			gi := g.Row(i)
			for j := i; j < n; j++ {
				gi[j] += vi * row[j]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.Set(j, i, g.At(i, j))
		}
	}
	return g
}

// WeightedGram computes mᵀ·W·m for diagonal weights w (len m.Rows).
func (m *Matrix) WeightedGram(w []float64) (*Matrix, error) {
	if len(w) != m.Rows {
		return nil, fmt.Errorf("%w: weights %d, rows %d", ErrShape, len(w), m.Rows)
	}
	n := m.Cols
	g := NewMatrix(n, n)
	for r := 0; r < m.Rows; r++ {
		wr := w[r]
		if wr == 0 {
			continue
		}
		row := m.Row(r)
		for i := 0; i < n; i++ {
			vi := wr * row[i]
			if vi == 0 {
				continue
			}
			gi := g.Row(i)
			for j := i; j < n; j++ {
				gi[j] += vi * row[j]
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.Set(j, i, g.At(i, j))
		}
	}
	return g, nil
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

// RidgeLeastSquares solves min ‖X·β − y‖² + λ‖β‖². λ must be ≥ 0.
func RidgeLeastSquares(x *Matrix, y []float64, lambda float64) ([]float64, error) {
	if x.Rows != len(y) {
		return nil, fmt.Errorf("%w: design %dx%d, response %d", ErrShape, x.Rows, x.Cols, len(y))
	}
	if lambda < 0 {
		return nil, fmt.Errorf("linalg: negative ridge penalty %g", lambda)
	}
	g := x.Gram()
	for i := 0; i < g.Rows; i++ {
		g.Set(i, i, g.At(i, i)+lambda)
	}
	rhs, err := x.Transpose().MulVec(y)
	if err != nil {
		return nil, err
	}
	return SolveSPD(g, rhs)
}

// WeightedRidge solves min Σ wᵢ(Xᵢ·β − yᵢ)² + λ‖β‖².
func WeightedRidge(x *Matrix, y, w []float64, lambda float64) ([]float64, error) {
	if x.Rows != len(y) || x.Rows != len(w) {
		return nil, fmt.Errorf("%w: design %dx%d, response %d, weights %d", ErrShape, x.Rows, x.Cols, len(y), len(w))
	}
	g, err := x.WeightedGram(w)
	if err != nil {
		return nil, err
	}
	for i := 0; i < g.Rows; i++ {
		g.Set(i, i, g.At(i, i)+lambda)
	}
	rhs := make([]float64, x.Cols)
	for r := 0; r < x.Rows; r++ {
		wy := w[r] * y[r]
		if wy == 0 {
			continue
		}
		row := x.Row(r)
		for j, v := range row {
			rhs[j] += v * wy
		}
	}
	return SolveSPD(g, rhs)
}

// HuberOptions controls robust regression.
type HuberOptions struct {
	// Delta is the Huber threshold in units of the residual scale
	// (MAD-based). Residuals within Delta·scale get weight 1; beyond it
	// weights decay as Delta·scale/|r|. Default 1.345 (95% Gaussian
	// efficiency).
	Delta float64
	// MaxIter bounds the IRLS iterations. Default 25.
	MaxIter int
	// Tol is the coefficient-change convergence threshold. Default 1e-8.
	Tol float64
	// Lambda is an optional ridge penalty applied at every iteration.
	Lambda float64
}

func (o HuberOptions) withDefaults() HuberOptions {
	if o.Delta <= 0 {
		o.Delta = 1.345
	}
	if o.MaxIter <= 0 {
		o.MaxIter = 25
	}
	if o.Tol <= 0 {
		o.Tol = 1e-8
	}
	return o
}

// HuberRegression fits β minimising the Huber loss of X·β − y via IRLS.
// It is robust to a moderate fraction of gross outliers in y.
func HuberRegression(x *Matrix, y []float64, opts HuberOptions) ([]float64, error) {
	opts = opts.withDefaults()
	beta, err := RidgeLeastSquares(x, y, opts.Lambda)
	if err != nil {
		return nil, err
	}
	w := make([]float64, x.Rows)
	resid := make([]float64, x.Rows)
	for iter := 0; iter < opts.MaxIter; iter++ {
		pred, err := x.MulVec(beta)
		if err != nil {
			return nil, err
		}
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
		scale := MAD(resid) * 1.4826
		if scale < 1e-12 {
			return beta, nil // perfect fit to working precision
		}
		thresh := opts.Delta * scale
		for i, r := range resid {
			if ar := math.Abs(r); ar <= thresh {
				w[i] = 1
			} else {
				w[i] = thresh / ar
			}
		}
		next, err := WeightedRidge(x, y, w, opts.Lambda)
		if err != nil {
			return nil, err
		}
		var change float64
		for i := range next {
			change += math.Abs(next[i] - beta[i])
		}
		beta = next
		if change < opts.Tol {
			break
		}
	}
	return beta, nil
}

// MAD computes the median absolute deviation from the median.
func MAD(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	med := Median(xs)
	dev := make([]float64, len(xs))
	for i, v := range xs {
		dev[i] = math.Abs(v - med)
	}
	return Median(dev)
}

// Median returns the median of xs without mutating it.
func Median(xs []float64) float64 {
	return Quantile(xs, 0.5)
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
	pos := q * float64(len(cp)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return cp[lo]
	}
	frac := pos - float64(lo)
	return cp[lo]*(1-frac) + cp[hi]*frac
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
