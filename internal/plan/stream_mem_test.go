package plan

import (
	"context"
	"runtime"
	"testing"

	"ejoin/internal/core"
	"ejoin/internal/cost"
	"ejoin/internal/embstore"
	"ejoin/internal/model"
	"ejoin/internal/relational"
	"ejoin/internal/vec"
	"ejoin/internal/workload"
)

// TestStreamingPeakMemoryRegression is the memory contract behind
// block-at-a-time execution: a threshold join with a small LIMIT over a
// large probe side must allocate far less than materializing the probe
// side would, because the stream embeds and probes only the blocks it
// takes to satisfy the limit. The bound is analytic: under a quarter of
// the probe side's full float32 embedding bytes, the least a whole-input
// execution pays before comparing anything.
//
// Setup: 2000 probe rows, build side = the first 32 probe strings (so
// identical strings guarantee similarity-1.0 matches inside the first
// block), block size 64, LIMIT 10. The stream satisfies the limit after
// ~1-2 blocks (≈128 rows of intermediates) against 2000 rows' worth.
// Embeddings come from a pre-warmed shared store, so the measured
// allocations are executor intermediates (gathered text slices, embedding
// matrices, match buffers), not model work.
func TestStreamingPeakMemoryRegression(t *testing.T) {
	const (
		probeRows = 2000
		buildRows = 32
		blockRows = 64
		limit     = 10
		dim       = 64
	)
	words := workload.Strings(5, probeRows, nil)
	left, err := relational.NewTable(
		relational.Schema{{Name: "word", Type: relational.String}},
		[]relational.Column{relational.StringColumn(words)},
	)
	if err != nil {
		t.Fatal(err)
	}
	right, err := relational.NewTable(
		relational.Schema{{Name: "term", Type: relational.String}},
		[]relational.Column{relational.StringColumn(words[:buildRows])},
	)
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.NewHashEmbedder(dim)
	if err != nil {
		t.Fatal(err)
	}
	q := Query{
		Left:  TableRef{Name: "L", Table: left, TextColumn: "word"},
		Right: TableRef{Name: "R", Table: right, TextColumn: "term"},
		Model: m,
		Join:  JoinSpec{Kind: ThresholdJoin, Threshold: 0.5},
	}
	naive, err := NewNaivePlan(q)
	if err != nil {
		t.Fatal(err)
	}
	o := NewOptimizer()
	s := cost.StrategyNLJ
	o.ForceStrategy = &s
	optimized, err := o.Optimize(naive)
	if err != nil {
		t.Fatal(err)
	}

	store := embstore.New(embstore.Config{Threads: 1})
	ex := &Executor{
		Options:   core.Options{Kernel: vec.DefaultKernel(), Threads: 1},
		Store:     store,
		BlockRows: blockRows,
	}
	ctx := context.Background()

	// Warm the shared store with every embedding both runs could need, so
	// neither measurement includes model-call or cache-fill allocations.
	if _, _, err := store.EmbedAll(ctx, m, words, embstore.BatchOptions{Threads: 1}); err != nil {
		t.Fatal(err)
	}

	measure := func(run func() error) uint64 {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := run(); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}

	// One untimed run to settle any remaining lazy state.
	if _, err := ex.ExecuteStreaming(ctx, optimized, limit); err != nil {
		t.Fatal(err)
	}

	var streamRes *ExecResult
	allocStream := measure(func() error {
		var err error
		streamRes, err = ex.ExecuteStreaming(ctx, optimized, limit)
		return err
	})
	full, err := ex.ExecuteStreaming(ctx, optimized, 0)
	if err != nil {
		t.Fatal(err)
	}

	if !streamRes.Truncated || len(streamRes.Matches) != limit {
		t.Fatalf("stream returned %d matches (truncated=%v), want limit %d hit",
			len(streamRes.Matches), streamRes.Truncated, limit)
	}
	if len(full.Matches) <= limit {
		t.Fatalf("full run found only %d matches; workload must overshoot the limit", len(full.Matches))
	}
	for i := 0; i < limit; i++ {
		if streamRes.Matches[i] != full.Matches[i] {
			t.Fatalf("match %d diverges: limited %+v, full %+v", i, streamRes.Matches[i], full.Matches[i])
		}
	}
	probeBytes := uint64(probeRows * dim * 4)
	t.Logf("intermediate allocations: streaming %d B, probe-side float32 embeddings %d B (ratio %.1fx)",
		allocStream, probeBytes, float64(probeBytes)/float64(allocStream))
	// The real ratio here is ~probeRows/(2*blockRows) ≈ 15x on embeddings
	// alone; 4x leaves headroom for allocator noise without letting a
	// whole-input regression hide.
	if allocStream*4 > probeBytes {
		t.Errorf("streaming allocated %d B; want < 1/4 of the probe side's %d float32 embedding bytes", allocStream, probeBytes)
	}
}
