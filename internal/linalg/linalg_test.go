package linalg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

// Mul returns m·b, the plain triple loop that Gram's symmetric
// accumulation is checked against.
func (m *Matrix) Mul(b *Matrix) (*Matrix, error) {
	if m.Cols != b.Rows {
		return nil, fmt.Errorf("%w: (%dx%d)·(%dx%d)", ErrShape, m.Rows, m.Cols, b.Rows, b.Cols)
	}
	out := NewMatrix(m.Rows, b.Cols)
	for i := 0; i < m.Rows; i++ {
		oi := out.Row(i)
		for k, mik := range m.Row(i) {
			for j, bkj := range b.Row(k) {
				oi[j] += mik * bkj
			}
		}
	}
	return out, nil
}

func TestMatrixBasics(t *testing.T) {
	m := &Matrix{Rows: 2, Cols: 3, Data: []float64{1, 2, 3, 4, 5, 6}}
	if m.Rows != 2 || m.Cols != 3 {
		t.Fatalf("shape = %dx%d", m.Rows, m.Cols)
	}
	if m.At(1, 2) != 6 {
		t.Errorf("At(1,2) = %g", m.At(1, 2))
	}
	m.Set(0, 0, 9)
	if m.At(0, 0) != 9 {
		t.Errorf("Set failed")
	}
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 || tr.At(2, 1) != 6 {
		t.Errorf("transpose wrong: %+v", tr)
	}
	c := m.Clone()
	c.Set(0, 0, -1)
	if m.At(0, 0) != 9 {
		t.Errorf("clone aliases original")
	}
}

func TestMulAndMulVec(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 3, 4}}
	b := &Matrix{Rows: 2, Cols: 2, Data: []float64{5, 6, 7, 8}}
	ab, err := a.Mul(b)
	if err != nil {
		t.Fatal(err)
	}
	want := &Matrix{Rows: 2, Cols: 2, Data: []float64{19, 22, 43, 50}}
	for i := range ab.Data {
		if ab.Data[i] != want.Data[i] {
			t.Fatalf("Mul = %+v, want %+v", ab.Data, want.Data)
		}
	}
	v, err := a.MulVec([]float64{1, -1})
	if err != nil {
		t.Fatal(err)
	}
	if v[0] != -1 || v[1] != -1 {
		t.Errorf("MulVec = %v", v)
	}
	if _, err := a.Mul(&Matrix{Rows: 1, Cols: 3, Data: []float64{1, 2, 3}}); !errors.Is(err, ErrShape) {
		t.Errorf("shape mismatch not detected: %v", err)
	}
	if _, err := a.MulVec([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("vec shape mismatch not detected: %v", err)
	}
}

func TestGramMatchesExplicit(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m := NewMatrix(13, 5)
	for i := range m.Data {
		m.Data[i] = r.NormFloat64()
	}
	g := m.Gram()
	explicit, err := m.Transpose().Mul(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range g.Data {
		if !almostEqual(g.Data[i], explicit.Data[i], 1e-12) {
			t.Fatalf("Gram[%d] = %g, explicit %g", i, g.Data[i], explicit.Data[i])
		}
	}
}

func TestWeightedGram(t *testing.T) {
	m := &Matrix{Rows: 3, Cols: 2, Data: []float64{1, 2, 3, 4, 5, 6}}
	w := []float64{2, 0, 1}
	g, err := m.WeightedGram(w)
	if err != nil {
		t.Fatal(err)
	}
	// Explicit: 2*[1,2]ᵀ[1,2] + 1*[5,6]ᵀ[5,6]
	want := &Matrix{Rows: 2, Cols: 2, Data: []float64{2 + 25, 4 + 30, 4 + 30, 8 + 36}}
	for i := range g.Data {
		if !almostEqual(g.Data[i], want.Data[i], 1e-12) {
			t.Fatalf("WeightedGram = %+v, want %+v", g.Data, want.Data)
		}
	}
	if _, err := m.WeightedGram([]float64{1}); !errors.Is(err, ErrShape) {
		t.Errorf("shape mismatch not detected")
	}
}

func TestCholeskySolveRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 20; trial++ {
		n := 1 + r.Intn(8)
		// Build SPD A = BᵀB + I.
		b := NewMatrix(n+3, n)
		for i := range b.Data {
			b.Data[i] = r.NormFloat64()
		}
		a := b.Gram()
		for i := 0; i < n; i++ {
			a.Set(i, i, a.At(i, i)+1)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = r.NormFloat64() * 10
		}
		rhs, err := a.MulVec(x)
		if err != nil {
			t.Fatal(err)
		}
		got, err := SolveSPD(a, rhs)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if !almostEqual(got[i], x[i], 1e-8) {
				t.Fatalf("trial %d: x[%d] = %g, want %g", trial, i, got[i], x[i])
			}
		}
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := &Matrix{Rows: 2, Cols: 2, Data: []float64{1, 2, 2, 1}} // eigenvalues 3, −1
	if _, err := Cholesky(a); !errors.Is(err, ErrSingular) {
		t.Errorf("expected ErrSingular, got %v", err)
	}
	if _, err := Cholesky(&Matrix{Rows: 1, Cols: 3, Data: []float64{1, 2, 3}}); !errors.Is(err, ErrShape) {
		t.Errorf("expected ErrShape for non-square, got %v", err)
	}
}

func TestSolveSPDJitterRecovers(t *testing.T) {
	// Rank-deficient Gram matrix; plain Cholesky fails, jitter succeeds.
	x := &Matrix{Rows: 3, Cols: 2, Data: []float64{1, 1, 2, 2, 3, 3}}
	g := x.Gram()
	rhs := []float64{1, 1}
	got, err := SolveSPD(g, rhs)
	if err != nil {
		t.Fatalf("jittered solve failed: %v", err)
	}
	// Any solution with g·x ≈ rhs is acceptable in the least-norm sense;
	// check residual is small relative to rhs.
	back, _ := g.MulVec(got)
	for i := range rhs {
		if math.Abs(back[i]-rhs[i]) > 1e-3 {
			t.Errorf("residual[%d] = %g", i, back[i]-rhs[i])
		}
	}
}

func TestLeastSquaresRecoversCoefficients(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	n, p := 200, 4
	x := NewMatrix(n, p)
	truth := []float64{2, -1, 0.5, 3}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < p; j++ {
			x.Set(i, j, r.NormFloat64())
		}
		for j := 0; j < p; j++ {
			y[i] += x.At(i, j) * truth[j]
		}
		y[i] += r.NormFloat64() * 0.01
	}
	beta, err := RidgeLeastSquares(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	for j := range truth {
		if !almostEqual(beta[j], truth[j], 1e-2) {
			t.Errorf("beta[%d] = %g, want %g", j, beta[j], truth[j])
		}
	}
}

func TestRidgeShrinks(t *testing.T) {
	x := &Matrix{Rows: 3, Cols: 1, Data: []float64{1, 1, 1}}
	y := []float64{3, 3, 3}
	ols, err := RidgeLeastSquares(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	ridge, err := RidgeLeastSquares(x, y, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !(math.Abs(ridge[0]) < math.Abs(ols[0])) {
		t.Errorf("ridge %g should shrink below OLS %g", ridge[0], ols[0])
	}
	if _, err := RidgeLeastSquares(x, y, -1); err == nil {
		t.Error("negative lambda accepted")
	}
	if _, err := RidgeLeastSquares(x, []float64{1}, 0); !errors.Is(err, ErrShape) {
		t.Errorf("shape mismatch not detected: %v", err)
	}
}

func TestHuberIgnoresOutliers(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	n := 300
	x := NewMatrix(n, 2)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		xv := float64(i) / 10
		x.Set(i, 0, 1)
		x.Set(i, 1, xv)
		y[i] = 5 + 2*xv + r.NormFloat64()*0.1
	}
	// Corrupt 10% with gross outliers.
	for i := 0; i < n/10; i++ {
		y[r.Intn(n)] += 500
	}
	beta, err := HuberRegression(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(beta[0], 5, 0.05) || !almostEqual(beta[1], 2, 0.05) {
		t.Errorf("huber beta = %v, want ~[5 2]", beta)
	}
	// OLS by contrast should be visibly pulled by the outliers.
	ols, err := RidgeLeastSquares(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ols[0]-5)+math.Abs(ols[1]-2) < math.Abs(beta[0]-5)+math.Abs(beta[1]-2) {
		t.Errorf("OLS (%v) unexpectedly beat Huber (%v) on corrupted data", ols, beta)
	}
}

func TestHuberPerfectFitShortCircuits(t *testing.T) {
	x := &Matrix{Rows: 3, Cols: 2, Data: []float64{1, 0, 1, 1, 1, 2}}
	y := []float64{1, 3, 5}
	beta, err := HuberRegression(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(beta[0], 1, 1e-9) || !almostEqual(beta[1], 2, 1e-9) {
		t.Errorf("beta = %v", beta)
	}
}

func TestQuantileAndMedian(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5}
	if got := Median(xs); got != 5 {
		t.Errorf("median = %g", got)
	}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %g", got)
	}
	if got := Quantile(xs, 1); got != 9 {
		t.Errorf("q1 = %g", got)
	}
	if got := Quantile(xs, 0.25); got != 3 {
		t.Errorf("q.25 = %g", got)
	}
	// Input must not be mutated.
	if xs[0] != 9 {
		t.Errorf("Quantile mutated input: %v", xs)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Errorf("empty quantile should be NaN")
	}
}

func TestQuickQuantileWithinBounds(t *testing.T) {
	f := func(raw []float64, q float64) bool {
		xs := raw[:0]
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		q = math.Abs(math.Mod(q, 1))
		got := Quantile(xs, q)
		return got >= minOf(xs) && got <= maxOf(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickQuantileMonotoneInQ(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		xs := make([]float64, 1+r.Intn(40))
		for i := range xs {
			xs[i] = r.NormFloat64() * 100
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := Quantile(xs, q)
			if v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMADAndStddev(t *testing.T) {
	xs := []float64{1, 1, 2, 2, 4, 6, 9}
	if got := MAD(xs); got != 1 {
		t.Errorf("MAD = %g, want 1", got)
	}
	if got := Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEqual(got, 2.138, 1e-3) {
		t.Errorf("stddev = %g", got)
	}
	if Stddev([]float64{5}) != 0 {
		t.Errorf("single-element stddev should be 0")
	}
	if MAD(nil) != 0 {
		t.Errorf("empty MAD should be 0")
	}
}

func TestLinearFitThroughOrigin(t *testing.T) {
	b, err := LinearFitThroughOrigin([]float64{1, 2, 3}, []float64{2, 4, 6})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(b, 2, 1e-12) {
		t.Errorf("slope = %g", b)
	}
	if _, err := LinearFitThroughOrigin([]float64{0, 0}, []float64{1, 2}); !errors.Is(err, ErrSingular) {
		t.Errorf("all-zero x not rejected: %v", err)
	}
}
