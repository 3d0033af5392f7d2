// Package learn provides the from-scratch online learners Proteus' cost
// functions and access-arrival forecasters are built on (§5.2): ridge
// linear regression over accumulated sufficient statistics, non-linear
// regression via feature expansion, a small feed-forward neural network,
// and an Elman recurrent network. The paper uses Dlib and libtorch for
// these; the implementations here expose the same train-on-observations /
// predict interfaces using only the standard library.
package learn

import (
	"fmt"
	"math"
	"sync"
)

// Linear is an online ridge regression: observations accumulate the
// sufficient statistics XᵀX and Xᵀy, and Fit solves the regularized normal
// equations. Safe for concurrent use.
type Linear struct {
	mu    sync.RWMutex
	d     int // features, excluding the intercept
	ridge float64
	xtx   [][]float64 // (d+1) x (d+1)
	xty   []float64
	w     []float64
	aug   [][]float64 // (d+1) x (d+2) elimination scratch, rewritten by every fit
	n     int
	dirty bool
}

// NewLinear creates a regressor over d features with ridge penalty lambda.
func NewLinear(d int, lambda float64) *Linear {
	l := &Linear{d: d, ridge: lambda}
	l.xtx = make([][]float64, d+1)
	for i := range l.xtx {
		l.xtx[i] = make([]float64, d+1)
	}
	l.xty = make([]float64, d+1)
	l.w = make([]float64, d+1)
	l.aug = make([][]float64, d+1)
	for i := range l.aug {
		l.aug[i] = make([]float64, d+2)
	}
	return l
}

// Observe accumulates one (features, target) pair.
func (l *Linear) Observe(x []float64, y float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	// The design vector is (1, x...): at reads it without building it.
	at := func(i int) float64 {
		if i == 0 {
			return 1
		}
		return x[i-1]
	}
	for i := 0; i <= len(x); i++ {
		xi := at(i)
		for j := 0; j <= len(x); j++ {
			l.xtx[i][j] += xi * at(j)
		}
		l.xty[i] += xi * y
	}
	l.n++
	l.dirty = true
}

// N reports the number of observations.
func (l *Linear) N() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.n
}

// Fit solves (XᵀX + λI) w = Xᵀy by Gaussian elimination with partial
// pivoting. It is cheap (d is small) and called lazily by Predict.
func (l *Linear) Fit() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.fitLocked()
}

func (l *Linear) fitLocked() error {
	if !l.dirty {
		return nil
	}
	d := l.d + 1
	a := l.aug // pivoting swaps its rows; each fit rewrites every cell
	for i := range a {
		copy(a[i], l.xtx[i])
		a[i][i] += l.ridge
		a[i][d] = l.xty[i]
	}
	for col := 0; col < d; col++ {
		piv := col
		for r := col + 1; r < d; r++ {
			if math.Abs(a[r][col]) > math.Abs(a[piv][col]) {
				piv = r
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return fmt.Errorf("learn: singular system at column %d", col)
		}
		a[col], a[piv] = a[piv], a[col]
		for r := 0; r < d; r++ {
			if r == col {
				continue
			}
			f := a[r][col] / a[col][col]
			for c := col; c <= d; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	for i := 0; i < d; i++ {
		l.w[i] = a[i][d] / a[i][i]
	}
	l.dirty = false
	return nil
}

// Predict evaluates the model at x, refitting if new observations arrived.
func (l *Linear) Predict(x []float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	_ = l.fitLocked()
	y := l.w[0]
	for i, xi := range x {
		if i+1 < len(l.w) {
			y += l.w[i+1] * xi
		}
	}
	return y
}

// Weights returns a copy of the fitted coefficients (intercept first).
func (l *Linear) Weights() []float64 {
	_ = l.Fit()
	l.mu.RLock()
	defer l.mu.RUnlock()
	return append([]float64(nil), l.w...)
}

// SetWeights installs coefficients directly (model warm start, Fig 12c).
func (l *Linear) SetWeights(w []float64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	copy(l.w, w)
	l.dirty = false
}

// Nonlinear is a regression with a fixed non-linear feature expansion
// (x, log1p(x), sqrt(x), and pairwise products), fitted linearly — the
// "non-linear regression" cost-function family of §5.2.1.
type Nonlinear struct {
	d   int
	lin *Linear
}

// NewNonlinear creates a non-linear regressor over d raw features.
func NewNonlinear(d int, lambda float64) *Nonlinear {
	return &Nonlinear{d: d, lin: NewLinear(expandedDim(d), lambda)}
}

func expandedDim(d int) int { return 3*d + d*(d-1)/2 }

// Expand computes the feature mapping.
func (n *Nonlinear) Expand(x []float64) []float64 {
	out := make([]float64, 0, expandedDim(n.d))
	out = append(out, x...)
	for _, v := range x {
		out = append(out, math.Log1p(math.Abs(v)))
	}
	for _, v := range x {
		out = append(out, math.Sqrt(math.Abs(v)))
	}
	for i := 0; i < len(x); i++ {
		for j := i + 1; j < len(x); j++ {
			out = append(out, x[i]*x[j])
		}
	}
	return out
}

// Observe accumulates one raw observation.
func (n *Nonlinear) Observe(x []float64, y float64) { n.lin.Observe(n.Expand(x), y) }

// Predict evaluates the model at raw features x.
func (n *Nonlinear) Predict(x []float64) float64 { return n.lin.Predict(n.Expand(x)) }

// N reports the number of observations.
func (n *Nonlinear) N() int { return n.lin.N() }
