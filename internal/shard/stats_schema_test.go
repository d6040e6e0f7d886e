package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ejoin/internal/service"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestRouterStatsSchemaGolden pins the sharded /stats JSON schema the
// same way the engine's golden test pins ServerStats: the set of key
// paths after a query and a mutation must match the golden file exactly.
// Per-shard engine sections appear under per_shard[] — one schema for
// every shard, so the array contributes a single deterministic subtree.
// Run with -update to regenerate.
func TestRouterStatsSchemaGolden(t *testing.T) {
	cfg := diffConfig(t)
	r := newRouter(t, cfg, 2, "hash", loadCorpus)
	ctx := context.Background()
	if _, err := r.Query(ctx, service.QueryRequest{SQL: "SELECT * FROM l JOIN r ON SIM(l.word, r.term) >= 0.85"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.UpsertCSV(ctx, "l", "word", strings.NewReader("word,n\nschema-row,999\n")); err != nil {
		t.Fatal(err)
	}

	data, err := json.Marshal(r.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	// Maps keyed by runtime values are schema leaves; their keys are data.
	dynamic := map[string]bool{
		"strategies":                           true,
		"per_shard[].strategies":               true,
		"per_shard[].quant.joins_by_precision": true,
		"per_shard[].quant.table_precisions":   true,
		"per_shard[].store_models":             true,
		"per_shard[].mutation.generations":     true,
	}
	var paths []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		if dynamic[prefix] {
			paths = append(paths, prefix)
			return
		}
		switch x := v.(type) {
		case map[string]any:
			for k, sub := range x {
				p := k
				if prefix != "" {
					p = prefix + "." + k
				}
				walk(p, sub)
			}
		case []any:
			// Every element shares one schema (asserted below for the
			// per-shard sections); the first stands in for all.
			if len(x) > 0 {
				walk(prefix+"[]", x[0])
			} else {
				paths = append(paths, prefix+"[]")
			}
		default:
			paths = append(paths, prefix)
		}
	}
	walk("", m)
	sort.Strings(paths)
	got := strings.Join(paths, "\n") + "\n"

	// The per-shard sections must agree with each other key-for-key, or
	// the "first element stands for all" walk above would hide drift.
	shards := m["per_shard"].([]any)
	if len(shards) != 2 {
		t.Fatalf("per_shard has %d sections, want 2", len(shards))
	}
	keysOf := func(v any) string {
		var ks []string
		for k := range v.(map[string]any) {
			ks = append(ks, k)
		}
		sort.Strings(ks)
		return strings.Join(ks, ",")
	}
	if keysOf(shards[0]) != keysOf(shards[1]) {
		t.Errorf("per-shard sections disagree on keys:\n%s\nvs\n%s", keysOf(shards[0]), keysOf(shards[1]))
	}

	golden := filepath.Join("testdata", "router_stats_schema.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("router stats schema drifted from %s (run with -update if intended):\ngot:\n%s\nwant:\n%s", golden, got, want)
	}
}

// TestRouterMetricsScrapeConcurrent: one router exposition must never
// count a query in the latency histogram that queries_total does not
// show yet (Query bumps the counter before it observes latency, so the
// scrape must read the histogram first).
func TestRouterMetricsScrapeConcurrent(t *testing.T) {
	cfg := diffConfig(t)
	cfg.DisableTracing = true
	r := newRouter(t, cfg, 2, "hash", loadCorpus)
	ctx := context.Background()
	req := service.QueryRequest{SQL: "SELECT * FROM l JOIN r ON SIM(l.word, r.term) >= 0.85"}
	if _, err := r.Query(ctx, req); err != nil {
		t.Fatal(err) // warm the store: the loop below is compute-light
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	defer func() {
		close(done)
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	}()
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				if _, err := r.Query(ctx, req); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	for i := 0; i < 100; i++ {
		var buf bytes.Buffer
		if err := r.WriteMetrics(&buf); err != nil {
			t.Fatal(err)
		}
		queries := scrapeValue(t, buf.String(), "ejoin_shard_queries_total")
		count := scrapeValue(t, buf.String(), "ejoin_shard_query_duration_seconds_count")
		if count > queries {
			t.Fatalf("scrape %d: ejoin_shard_query_duration_seconds_count %v > ejoin_shard_queries_total %v", i, count, queries)
		}
	}
}

// scrapeValue returns the value of an unlabelled sample in an exposition.
func scrapeValue(t *testing.T, exposition, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(exposition, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return f
		}
	}
	t.Fatalf("exposition has no %s sample", name)
	return 0
}
