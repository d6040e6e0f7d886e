package core

import (
	"context"
	"testing"

	"ejoin/internal/mat"
	"ejoin/internal/quant"
	"ejoin/internal/vec"
)

var scanSink *Result

// BenchmarkThresholdScan times one threshold scan per precision rung over
// 2048×2048 unit vectors of dimension 100 on one thread and reports the
// per-pair cost (ns/pair), the ratio the cost model's ScanCostFactor
// encodes. Run: go test -run '^$' -bench ThresholdScan ./internal/core/
func BenchmarkThresholdScan(b *testing.B) {
	const n, d = 2048, 100
	const threshold = 0.8
	left := randomEmbeddings(101, n, d)
	right := randomEmbeddings(102, n, d)
	opts := Options{Kernel: vec.KernelSIMD, Threads: 1}
	ctx := context.Background()
	lh, rh := mat.EncodeF16(left), mat.EncodeF16(right)
	lq, rq := quant.EncodeInt8(left), quant.EncodeInt8(right)
	rungs := []struct {
		name string
		run  func() (*Result, error)
	}{
		{"f32", func() (*Result, error) { return TensorJoin(ctx, left, right, threshold, opts) }},
		{"f16", func() (*Result, error) { return NLJF16(ctx, lh, rh, threshold, opts) }},
		{"int8", func() (*Result, error) { return NLJI8(ctx, lq, rq, threshold, opts) }},
	}
	for _, rung := range rungs {
		b.Run(rung.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := rung.run()
				if err != nil {
					b.Fatal(err)
				}
				scanSink = res
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/(n*n), "ns/pair")
		})
	}
}
