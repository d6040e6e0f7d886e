package bench

import (
	"context"
	"fmt"
	"io"

	"ejoin/internal/core"
	"ejoin/internal/lsh"
	"ejoin/internal/mat"
	"ejoin/internal/model"
	"ejoin/internal/vec"
	"ejoin/internal/workload"
)

// Extension ablations beyond the paper's figures, for the design choices
// DESIGN.md calls out: the LSH baseline the paper positions against
// (Sections IV-A, VII), half-precision storage (Section V-A2), and
// cached-vs-online embedding (Figure 5, Option 1 vs Option 2).

// expLSH compares the exact tensor join against the SimHash LSH join.
func expLSH() Experiment {
	return Experiment{
		Name:        "lsh",
		Paper:       "Ablation (SS IV-A/VII)",
		Description: "Exact tensor join vs locality-sensitive-hashing join: candidates verified, recall, and time on clustered embeddings.",
		Run: func(w io.Writer, cfg Config) error {
			ctx := context.Background()
			n := cfg.size(4000)
			dim := 64
			// Clusters around shared centers with per-dim noise 0.07, which
			// puts the within-cluster similarity distribution right at the
			// threshold (mean ≈ 1/(1+σ²·d) ≈ 0.76): many borderline pairs,
			// where LSH banding actually loses some (the recall trade-off).
			left := workload.CorrelatedVectorsFrom(cfg.Seed, cfg.Seed+100, n, dim, 64, 0.07)
			right := workload.CorrelatedVectorsFrom(cfg.Seed+1, cfg.Seed+100, n, dim, 64, 0.07)
			threshold := float32(0.75)

			var exact *core.Result
			dExact, err := timed(func() error {
				var err error
				exact, err = core.TensorJoin(ctx, left, right, threshold, core.Options{Kernel: vec.KernelSIMD, Threads: cfg.threads()})
				return err
			})
			if err != nil {
				return err
			}

			t := newTable("Join", "Time [ms]", "Pairs verified", "Matches", "Recall")
			t.addRow("Tensor (exact)", ms(dExact), fmt.Sprintf("%d", int64(n)*int64(n)),
				fmt.Sprintf("%d", len(exact.Matches)), "1.00")
			for _, p := range []lsh.Params{
				{Bands: 4, BitsPerBand: 12, Seed: cfg.Seed},
				{Bands: 8, BitsPerBand: 12, Seed: cfg.Seed},
				{Bands: 16, BitsPerBand: 10, Seed: cfg.Seed},
			} {
				j, err := lsh.NewJoiner(dim, p)
				if err != nil {
					return err
				}
				var matches []core.Match
				var stats lsh.Stats
				d, err := timed(func() error {
					var err error
					matches, stats, err = j.Join(ctx, left, right, threshold)
					return err
				})
				if err != nil {
					return err
				}
				t.addRow(fmt.Sprintf("LSH b=%d bits=%d", p.Bands, p.BitsPerBand), ms(d),
					fmt.Sprintf("%d", stats.CandidatePairs),
					fmt.Sprintf("%d", len(matches)),
					fmt.Sprintf("%.2f", lsh.Recall(matches, exact.Matches)))
			}
			t.print(w)
			fmt.Fprintln(w, "\nShape check: LSH verifies a fraction of the cross product at sub-1.0 recall; more bands raise recall and candidates.")
			return nil
		},
	}
}

// expFP16 is the half-precision storage ablation.
func expFP16() Experiment {
	return Experiment{
		Name:        "fp16",
		Paper:       "Ablation (SS V-A2)",
		Description: "Half-precision (FP16) storage vs float32: memory footprint, join time, and result agreement.",
		Run: func(w io.Writer, cfg Config) error {
			ctx := context.Background()
			n := cfg.size(1500)
			left := workload.CorrelatedVectors(cfg.Seed, n, 100, 32, 0.2)
			right := workload.CorrelatedVectors(cfg.Seed, n, 100, 32, 0.2)
			opts := core.Options{Kernel: vec.KernelSIMD, Threads: cfg.threads()}
			threshold := float32(0.8)

			var f32Res *core.Result
			dF32, err := timed(func() error {
				var err error
				f32Res, err = core.TensorJoin(ctx, left, right, threshold, opts)
				return err
			})
			if err != nil {
				return err
			}
			hl, hr := mat.EncodeF16(left), mat.EncodeF16(right)
			var f16Res *core.Result
			dF16, err := timed(func() error {
				var err error
				f16Res, err = core.NLJF16(ctx, hl, hr, threshold, opts)
				return err
			})
			if err != nil {
				return err
			}

			t := newTable("Precision", "Input bytes", "Time [ms]", "Matches")
			t.addRow("FP32", fmtBytes(left.SizeBytes()+right.SizeBytes()), ms(dF32), fmt.Sprintf("%d", len(f32Res.Matches)))
			t.addRow("FP16", fmtBytes(hl.SizeBytes()+hr.SizeBytes()), ms(dF16), fmt.Sprintf("%d", len(f16Res.Matches)))
			t.print(w)
			fmt.Fprintf(w, "\nShape check: FP16 halves storage; both rows run the same tiled GEMM, FP16 decoding each panel once, so time stays close to FP32. Match counts agree within quantization slack (%d vs %d).\n",
				len(f32Res.Matches), len(f16Res.Matches))
			return nil
		},
	}
}

// expModelCache ablates cached/precomputed embeddings against online
// embedding on the query's critical path.
func expModelCache() Experiment {
	return Experiment{
		Name:        "modelcache",
		Paper:       "Ablation (Fig 5)",
		Description: "Precomputed/cached embeddings (Option 1) vs online embedding (Option 2) on the join's critical path.",
		Run: func(w io.Writer, cfg Config) error {
			ctx := context.Background()
			nr, ns := cfg.size(400), cfg.size(400)
			left := workload.Strings(cfg.Seed, nr, nil)
			right := workload.Strings(cfg.Seed+1, ns, nil)
			opts := core.Options{Kernel: vec.KernelSIMD, Threads: cfg.threads()}

			online, err := model.NewHashEmbedder(100)
			if err != nil {
				return err
			}
			// Online: model on the critical path every run.
			dOnline, err := timed(func() error {
				_, err := core.PrefetchNLJ(ctx, online, left, right, 0.8, opts)
				return err
			})
			if err != nil {
				return err
			}
			// Cached: embeddings precomputed once, joins reuse them.
			lm, err := core.Embed(ctx, online, left)
			if err != nil {
				return err
			}
			rm, err := core.Embed(ctx, online, right)
			if err != nil {
				return err
			}
			dCached, err := timed(func() error {
				_, err := core.TensorJoin(ctx, lm, rm, 0.8, opts)
				return err
			})
			if err != nil {
				return err
			}
			// Memoizing model: second run hits the cache.
			memo, err := model.NewHashEmbedder(100, model.WithCache())
			if err != nil {
				return err
			}
			if _, err := core.PrefetchNLJ(ctx, memo, left, right, 0.8, opts); err != nil {
				return err
			}
			dMemo, err := timed(func() error {
				_, err := core.PrefetchNLJ(ctx, memo, left, right, 0.8, opts)
				return err
			})
			if err != nil {
				return err
			}

			t := newTable("Strategy", "Time [ms]", "Model on critical path")
			t.addRow("Online embedding (Option 2)", ms(dOnline), "yes, every query")
			t.addRow("Memoized model, warm", ms(dMemo), "cache lookups only")
			t.addRow("Precomputed vectors (Option 1)", ms(dCached), "no")
			t.print(w)
			fmt.Fprintln(w, "\nShape check: removing the model from the critical path dominates; memoization recovers most of the precompute benefit.")
			return nil
		},
	}
}
