package service

import (
	"context"
	"strings"
	"testing"

	"ejoin/internal/quant"
	"ejoin/internal/relational"
)

// TestTablePrecisionKnob: setting a per-table precision makes its
// threshold joins execute quantized (coarser side wins), results stay in
// agreement away from the boundary, and stats report the knob and the
// per-precision join counts.
func TestTablePrecisionKnob(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	ctx := context.Background()

	exact, err := e.Query(ctx, QueryRequest{SQL: testQuery})
	if err != nil {
		t.Fatal(err)
	}
	if exact.Precision != "f32" {
		t.Fatalf("default precision %q", exact.Precision)
	}

	if err := e.SetTablePrecision("left", quant.PrecisionInt8); err != nil {
		t.Fatal(err)
	}
	if got := e.TablePrecision("left"); got != quant.PrecisionInt8 {
		t.Fatalf("knob reads back %v", got)
	}
	quantized, err := e.Query(ctx, QueryRequest{SQL: testQuery})
	if err != nil {
		t.Fatal(err)
	}
	if quantized.Precision != "int8" {
		t.Fatalf("knobbed precision %q", quantized.Precision)
	}
	// The test threshold (0.8) is far from the workload's similarity
	// mass relative to the int8 bound: identical match sets.
	if len(quantized.Matches) != len(exact.Matches) {
		t.Fatalf("int8 %d matches, exact %d", len(quantized.Matches), len(exact.Matches))
	}
	for i := range exact.Matches {
		if exact.Matches[i].Left != quantized.Matches[i].Left ||
			exact.Matches[i].Right != quantized.Matches[i].Right {
			t.Fatalf("match %d differs", i)
		}
	}

	st := e.Stats()
	if st.Quant.TablePrecisions["left"] != "int8" {
		t.Fatalf("stats table precisions %v", st.Quant.TablePrecisions)
	}
	if st.Quant.JoinsByPrecision["f32"] != 1 || st.Quant.JoinsByPrecision["int8"] != 1 {
		t.Fatalf("joins by precision %v", st.Quant.JoinsByPrecision)
	}

	// Listings carry the knob; dropping the table clears it.
	for _, ti := range e.Tables() {
		want := "auto"
		if ti.Name == "left" {
			want = "int8"
		}
		if ti.Precision != want {
			t.Fatalf("table %s precision %q, want %q", ti.Name, ti.Precision, want)
		}
	}
	e.DropTable("left")
	if got := e.TablePrecision("left"); got != quant.PrecisionAuto {
		t.Fatalf("dropped table keeps precision %v", got)
	}
}

// TestTablePrecisionClearedOnReplace: replacing a table's contents must
// not silently inherit the old data's precision opt-in — replace matches
// drop-then-create semantics.
func TestTablePrecisionClearedOnReplace(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	if err := e.SetTablePrecision("left", quant.PrecisionInt8); err != nil {
		t.Fatal(err)
	}
	tbl, err := stringTable([]string{"replacement"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.RegisterTable("left", tbl); err != nil {
		t.Fatal(err)
	}
	if got := e.TablePrecision("left"); got != quant.PrecisionAuto {
		t.Fatalf("replaced table kept precision %v", got)
	}
	// The CSV replace path clears it too.
	if err := e.SetTablePrecision("right", quant.PrecisionF16); err != nil {
		t.Fatal(err)
	}
	if _, err := e.RegisterCSV("right", relational.Schema{{Name: "text", Type: relational.String}},
		strings.NewReader("text\nfresh\n"), true); err != nil {
		t.Fatal(err)
	}
	if got := e.TablePrecision("right"); got != quant.PrecisionAuto {
		t.Fatalf("CSV-replaced table kept precision %v", got)
	}
}

// TestTablePrecisionValidation: unknown tables and non-scan precisions
// are rejected; top-k joins ignore the knob.
func TestTablePrecisionValidation(t *testing.T) {
	e, _ := newTestEngine(t, Config{})
	if err := e.SetTablePrecision("nope", quant.PrecisionF16); err == nil {
		t.Fatal("expected unknown-table error")
	}
	if err := e.SetTablePrecision("left", quant.PrecisionPQ); err == nil {
		t.Fatal("expected pq rejection")
	}
	if err := e.SetTablePrecision("left", quant.PrecisionF16); err != nil {
		t.Fatal(err)
	}
	// Clearing back to auto works.
	if err := e.SetTablePrecision("left", quant.PrecisionAuto); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Quant.TablePrecisions != nil {
		t.Fatalf("cleared knob still reported: %v", e.Stats().Quant.TablePrecisions)
	}

	if err := e.SetTablePrecision("left", quant.PrecisionInt8); err != nil {
		t.Fatal(err)
	}
	res, err := e.Query(context.Background(), QueryRequest{Join: &JoinRequest{
		LeftTable: "left", LeftColumn: "text",
		RightTable: "right", RightColumn: "text",
		Kind: "topk", K: 2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Precision != "f32" {
		t.Fatalf("top-k executed at %q", res.Precision)
	}
}

// TestPrecisionSlackConfig: a configured slack makes the planner itself
// choose a quantized rung with no per-table knob involved, once the
// admission byte budget (which precision planning shares) rules out F32.
func TestPrecisionSlackConfig(t *testing.T) {
	// One byte is below every rung's footprint, so the smallest (int8)
	// is chosen; admission clamps the over-budget query rather than
	// refusing it.
	e, _ := newTestEngine(t, Config{PrecisionSlack: 0.05, AdmissionBytes: 1})
	res, err := e.Query(context.Background(), QueryRequest{SQL: testQuery})
	if err != nil {
		t.Fatal(err)
	}
	if res.Precision != "int8" {
		t.Fatalf("slack-planned precision %q", res.Precision)
	}
	if got := e.Stats().Quant.PrecisionSlack; got != 0.05 {
		t.Fatalf("stats slack %v", got)
	}
}
