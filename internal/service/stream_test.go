package service

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ejoin/internal/model"
	"ejoin/internal/oracle"
	"ejoin/internal/quant"
	"ejoin/internal/workload"
)

// blockRowsGrid is the block-invariance grid: one-row blocks, an odd
// size, the small size the other tests use, and one block holding a whole
// 120-row test table (the whole-input computation).
var blockRowsGrid = []int{1, 7, 16, 120}

// oracleFor evaluates a request over the test engine's "left"/"right"
// tables with the brute-force oracle (the same deterministic embedder,
// called directly).
func oracleFor(t *testing.T, e *Engine, k int, threshold float64) *oracle.Result {
	t.Helper()
	m, err := model.NewHashEmbedder(64)
	if err != nil {
		t.Fatal(err)
	}
	side := func(name string) oracle.Side {
		tbl, ok := e.catalog.Get(name)
		if !ok {
			t.Fatalf("no table %q", name)
		}
		return oracle.Side{Table: tbl, TextColumn: "text"}
	}
	res, err := oracle.Run(oracle.Join{Left: side("left"), Right: side("right"), Model: m, K: k, Threshold: threshold})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestServiceStreamingDifferential runs every request shape through
// twin engines that differ only in block size and requires byte-identical
// responses AND identical cardinality-feedback state, with every full
// result checked against the brute-force oracle and every LIMIT result
// equal to the full result's prefix.
func TestServiceStreamingDifferential(t *testing.T) {
	thr := 0.8
	type shape struct {
		req       QueryRequest
		k         int
		threshold float64
	}
	topk := &JoinRequest{
		LeftTable: "left", LeftColumn: "text",
		RightTable: "right", RightColumn: "text",
		Kind: "topk", K: 2,
	}
	structured := &JoinRequest{
		LeftTable: "left", LeftColumn: "text",
		RightTable: "right", RightColumn: "text",
		Kind: "threshold", Threshold: &thr,
	}
	shapes := []shape{
		{QueryRequest{SQL: testQuery}, 0, 0.8},
		{QueryRequest{SQL: testQuery, Limit: 3}, 0, 0.8},
		{QueryRequest{Join: topk}, 2, -2},
		{QueryRequest{Join: structured, Limit: 5}, 0, 0.8},
	}
	ctx := context.Background()
	engines := make([]*Engine, len(blockRowsGrid))
	for i, rows := range blockRowsGrid {
		engines[i], _ = newTestEngine(t, Config{ExecBlockRows: rows})
	}
	ref := engines[0]
	for i, sh := range shapes {
		want, err := ref.Query(ctx, sh.req)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		if len(want.Matches) == 0 {
			t.Fatalf("request %d produced no matches; differential is vacuous", i)
		}
		full := want
		if sh.req.Limit > 0 {
			if len(want.Matches) != sh.req.Limit {
				t.Fatalf("request %d returned %d matches, want limit %d", i, len(want.Matches), sh.req.Limit)
			}
			unlimited := sh.req
			unlimited.Limit = 0
			if full, err = ref.Query(ctx, unlimited); err != nil {
				t.Fatal(err)
			}
			for j := range want.Matches {
				if want.Matches[j] != full.Matches[j] {
					t.Fatalf("request %d: limited match %d is %+v, full result has %+v", i, j, want.Matches[j], full.Matches[j])
				}
			}
		}
		prec, err := quant.ParsePrecision(full.Precision)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracleFor(t, ref, sh.k, sh.threshold).Check(full.Matches, prec); err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		for b, e := range engines[1:] {
			got, err := e.Query(ctx, sh.req)
			if err != nil {
				t.Fatalf("request %d (BlockRows=%d): %v", i, blockRowsGrid[b+1], err)
			}
			if got.Strategy != want.Strategy || got.Precision != want.Precision {
				t.Errorf("request %d (BlockRows=%d): strategy/precision %s/%s, want %s/%s",
					i, blockRowsGrid[b+1], got.Strategy, got.Precision, want.Strategy, want.Precision)
			}
			if len(got.Matches) != len(want.Matches) {
				t.Fatalf("request %d (BlockRows=%d): %d matches, want %d", i, blockRowsGrid[b+1], len(got.Matches), len(want.Matches))
			}
			for j := range want.Matches {
				if got.Matches[j] != want.Matches[j] {
					t.Fatalf("request %d (BlockRows=%d) match %d: %+v, want %+v", i, blockRowsGrid[b+1], j, got.Matches[j], want.Matches[j])
				}
			}
			if sh.req.Limit > 0 {
				// Keep every engine's feedback history identical to the
				// reference's, which also served the unlimited request.
				if _, err := e.Query(ctx, QueryRequest{SQL: sh.req.SQL, Join: sh.req.Join}); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	// The /stats cardinality feedback must be identical: same joins
	// recorded, same q-errors, same regret — and the same requests
	// *skipped* (a LIMIT that bites censors cardinality whatever the
	// block size).
	wd := ref.FeedbackDump()
	for b, e := range engines[1:] {
		if gd := e.FeedbackDump(); !reflect.DeepEqual(wd, gd) {
			t.Errorf("feedback diverged at BlockRows=%d:\n got  %+v\n want %+v", blockRowsGrid[b+1], gd, wd)
		}
	}
	st := ref.Stats()
	if st.Exec.TruncatedQueries == 0 {
		t.Error("limited requests truncated no streams")
	}
	if st.Exec.Batches == 0 {
		t.Error("engine recorded no batches")
	}
}

// TestStreamingAdmissionWeight is the over-admission-starvation fix: a
// plan holds build-side + one block of the byte budget, not both whole
// inputs, so a budget admits several queries that whole-input charging
// would have serialized.
func TestStreamingAdmissionWeight(t *testing.T) {
	// A large probe side against a small build side — the shape streaming
	// exists for.
	const probeRows, buildRows, dim = 600, 60, 64
	registerAsym := func(e *Engine) {
		for _, side := range []struct {
			name string
			rows int
		}{{"big", probeRows}, {"small", buildRows}} {
			tbl, err := stringTable(workload.Strings(9, side.rows, nil))
			if err != nil {
				t.Fatal(err)
			}
			if err := e.RegisterTable(side.name, tbl); err != nil {
				t.Fatal(err)
			}
		}
	}
	thr := 0.8
	asymQuery := QueryRequest{Join: &JoinRequest{
		LeftTable: "big", LeftColumn: "text",
		RightTable: "small", RightColumn: "text",
		Kind: "threshold", Threshold: &thr,
	}}

	// Measure the weight under an effectively unbounded budget (no
	// clamping), against the float32 embedding bytes of both whole inputs.
	e, _ := newTestEngine(t, Config{ExecBlockRows: 16})
	registerAsym(e)
	ctx := context.Background()
	res, err := e.Query(ctx, asymQuery)
	if err != nil {
		t.Fatal(err)
	}
	wStream, wMat := res.AdmittedBytes, int64((probeRows+buildRows)*dim*4)
	if wStream <= 0 {
		t.Fatalf("weight %d", wStream)
	}
	if wStream*4 > wMat {
		t.Fatalf("weight %d not >= 4x lighter than the whole inputs' %d bytes", wStream, wMat)
	}

	// Concurrency arithmetic under a shared budget sized for exactly four
	// queries: whole-input charging would admit at most one at a time (it
	// exceeds the budget and is clamped to run alone).
	budget := 4 * wStream
	if admitted := budget / wMat; admitted != 0 {
		t.Fatalf("budget %d fits %d whole-input queries; test needs 0 (clamped, runs alone)", budget, admitted)
	}

	// And empirically: four concurrent queries under that budget all
	// admit without a single wait.
	e4, _ := newTestEngine(t, Config{ExecBlockRows: 16, AdmissionBytes: budget, MaxConcurrent: 8})
	registerAsym(e4)
	// Warm the corpus first so the concurrent round is compute-light.
	if _, err := e4.Query(ctx, asymQuery); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e4.Query(ctx, asymQuery); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if waits := e4.Stats().AdmissionWaits; waits != 0 {
		t.Errorf("4 queries under a 4-query budget waited %d times, want 0", waits)
	}
}

// TestStreamingMetricsFamilies requires the exec metric families in the
// exposition after plain and limited queries.
func TestStreamingMetricsFamilies(t *testing.T) {
	e, _ := newTestEngine(t, Config{ExecBlockRows: 16})
	ctx := context.Background()
	if _, err := e.Query(ctx, QueryRequest{SQL: testQuery}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Query(ctx, QueryRequest{SQL: testQuery, Limit: 2}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.WriteMetrics(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"ejoin_exec_truncated_queries_total 1",
		"ejoin_exec_batches_total",
		"ejoin_exec_rows_early_out_total",
		`ejoin_exec_operator_duration_seconds_bucket{operator="scan"`,
		`ejoin_exec_operator_duration_seconds_bucket{operator="probe:`,
		`ejoin_exec_operator_duration_seconds_bucket{operator="limit"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
