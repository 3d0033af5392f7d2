package learn

import (
	"math"
	"math/rand"
	"testing"
)

// refLinear is the regressor as it was before it stopped allocating — a
// built design vector per observation, a fresh augmented matrix per fit —
// kept as the oracle the in-place version must match bit for bit.
type refLinear struct {
	d     int
	ridge float64
	xtx   [][]float64
	xty   []float64
	w     []float64
}

func newRefLinear(d int, lambda float64) *refLinear {
	r := &refLinear{d: d, ridge: lambda, xty: make([]float64, d+1), w: make([]float64, d+1)}
	r.xtx = make([][]float64, d+1)
	for i := range r.xtx {
		r.xtx[i] = make([]float64, d+1)
	}
	return r
}

func (r *refLinear) observe(x []float64, y float64) {
	xb := append([]float64{1}, x...)
	for i := range xb {
		for j := range xb {
			r.xtx[i][j] += xb[i] * xb[j]
		}
		r.xty[i] += xb[i] * y
	}
}

func (r *refLinear) fit() bool {
	d := r.d + 1
	a := make([][]float64, d)
	for i := range a {
		a[i] = make([]float64, d+1)
		copy(a[i], r.xtx[i])
		a[i][i] += r.ridge
		a[i][d] = r.xty[i]
	}
	for col := 0; col < d; col++ {
		piv := col
		for row := col + 1; row < d; row++ {
			if math.Abs(a[row][col]) > math.Abs(a[piv][col]) {
				piv = row
			}
		}
		if math.Abs(a[piv][col]) < 1e-12 {
			return false
		}
		a[col], a[piv] = a[piv], a[col]
		for row := 0; row < d; row++ {
			if row == col {
				continue
			}
			f := a[row][col] / a[col][col]
			for c := col; c <= d; c++ {
				a[row][c] -= f * a[col][c]
			}
		}
	}
	for i := 0; i < d; i++ {
		r.w[i] = a[i][d] / a[i][i]
	}
	return true
}

func (r *refLinear) predict(x []float64) float64 {
	r.fit()
	y := r.w[0]
	for i, xi := range x {
		y += r.w[i+1] * xi
	}
	return y
}

// TestLinearMatchesReferenceBitForBit drives both regressors through the
// cost model's pattern — predict, then observe, every time — over feature
// scales that force pivoting, and requires identical bits throughout: the
// scratch matrix is reused across fits with its rows left permuted, so a
// stale cell would show here.
func TestLinearMatchesReferenceBitForBit(t *testing.T) {
	for _, d := range []int{1, 3, 6} {
		rng := rand.New(rand.NewSource(int64(d)))
		l, ref := NewLinear(d, 1e-3), newRefLinear(d, 1e-3)
		x := make([]float64, d)
		for step := 0; step < 400; step++ {
			for i := range x {
				x[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(7)-2))
				if rng.Intn(5) == 0 {
					x[i] = 0
				}
			}
			y := rng.NormFloat64() * 100
			if got, want := l.Predict(x), ref.predict(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("d=%d step %d: predict %v, reference %v", d, step, got, want)
			}
			l.Observe(x, y)
			ref.observe(x, y)
		}
		ref.fit()
		for i, w := range l.Weights() {
			if math.Float64bits(w) != math.Float64bits(ref.w[i]) {
				t.Errorf("d=%d weight %d: %v, reference %v", d, i, w, ref.w[i])
			}
		}
	}
}

var sinkFloat float64

// BenchmarkLinearObservePredict is one cost-model observation: a prediction
// (which refits, the previous observation having marked the model dirty)
// followed by the observation itself. It must report 0 allocs/op.
func BenchmarkLinearObservePredict(b *testing.B) {
	const d = 6
	l := NewLinear(d, 1e-3)
	rng := rand.New(rand.NewSource(1))
	xs := make([][]float64, 64)
	for i := range xs {
		xs[i] = make([]float64, d)
		for j := range xs[i] {
			xs[i][j] = rng.Float64() * 1000
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := xs[i%len(xs)]
		sinkFloat = l.Predict(x)
		l.Observe(x, float64(i%97))
	}
}

func TestLinearObservePredictDoesNotAllocate(t *testing.T) {
	l := NewLinear(6, 1e-3)
	x := []float64{1, 20, 300, 0.5, 0, 7}
	allocs := testing.AllocsPerRun(200, func() {
		sinkFloat = l.Predict(x)
		l.Observe(x, 42)
	})
	if allocs != 0 {
		t.Errorf("predict+observe allocates %v times per call, want 0", allocs)
	}
}
