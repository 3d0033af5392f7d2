package exec

import (
	"testing"

	"proteus/internal/schema"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// BenchmarkBatchKernels compares the row-at-a-time boxed kernels against
// the typed vector kernels on the two hot scan operations: predicate
// filtering and sum aggregation, over int and float columns. `make bench`
// runs this with -benchmem; the allocs/op column is the point — the boxed
// paths box every cell through types.Value, the vector paths touch raw
// machine slices.
func BenchmarkBatchKernels(b *testing.B) {
	const n = 4096
	ints := make([]int64, n)
	floats := make([]float64, n)
	for i := 0; i < n; i++ {
		ints[i] = int64(i % 512)
		floats[i] = float64(i%512) / 2
	}
	intVec := storage.ViewVec(types.KindInt64, ints, nil, nil, nil)
	floatVec := storage.ViewVec(types.KindFloat64, nil, floats, nil, nil)
	intVecP, floatVecP := &intVec, &floatVec
	intCut := types.NewInt64(256)
	floatCut := types.NewFloat64(128)

	b.Run("filter-int/boxed", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			kept := 0
			for j := 0; j < n; j++ {
				if storage.CmpLt.Eval(types.NewInt64(ints[j]), intCut) {
					kept++
				}
			}
			_ = kept
		}
	})
	b.Run("filter-int/vector", func(b *testing.B) {
		b.SetBytes(n * 8)
		var sel []int32
		for i := 0; i < b.N; i++ {
			sel = storage.FilterVec(sel[:0], nil, n, intVecP, storage.CmpLt, intCut)
		}
	})
	b.Run("filter-float/boxed", func(b *testing.B) {
		b.SetBytes(n * 8)
		for i := 0; i < b.N; i++ {
			kept := 0
			for j := 0; j < n; j++ {
				if storage.CmpGe.Eval(types.NewFloat64(floats[j]), floatCut) {
					kept++
				}
			}
			_ = kept
		}
	})
	b.Run("filter-float/vector", func(b *testing.B) {
		b.SetBytes(n * 8)
		var sel []int32
		for i := 0; i < b.N; i++ {
			sel = storage.FilterVec(sel[:0], nil, n, floatVecP, storage.CmpGe, floatCut)
		}
	})

	specs := []AggSpec{{Func: AggSum, Col: 0}, {Func: AggMin, Col: 0}, {Func: AggMax, Col: 0}}
	batch := &Batch{Vecs: []Vec{intVec}}
	batch.SetRowIDsView(make([]schema.RowID, n))
	fbatch := &Batch{Vecs: []Vec{floatVec}}
	fbatch.SetRowIDsView(make([]schema.RowID, n))

	b.Run("sum-int/boxed", func(b *testing.B) {
		b.SetBytes(n * 8)
		a := NewAggregator(nil, specs)
		tuple := make([]types.Value, 1)
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				tuple[0] = types.NewInt64(ints[j])
				a.Observe(tuple)
			}
		}
	})
	b.Run("sum-int/vector", func(b *testing.B) {
		b.SetBytes(n * 8)
		a := NewAggregator(nil, specs)
		for i := 0; i < b.N; i++ {
			a.ObserveBatch(batch)
		}
	})
	b.Run("sum-float/boxed", func(b *testing.B) {
		b.SetBytes(n * 8)
		a := NewAggregator(nil, specs)
		tuple := make([]types.Value, 1)
		for i := 0; i < b.N; i++ {
			for j := 0; j < n; j++ {
				tuple[0] = types.NewFloat64(floats[j])
				a.Observe(tuple)
			}
		}
	})
	b.Run("sum-float/vector", func(b *testing.B) {
		b.SetBytes(n * 8)
		a := NewAggregator(nil, specs)
		for i := 0; i < b.N; i++ {
			a.ObserveBatch(fbatch)
		}
	})
}
