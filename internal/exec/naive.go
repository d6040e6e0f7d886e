package exec

import (
	"context"
	"fmt"
	"time"

	"ejoin/internal/core"
	"ejoin/internal/model"
	"ejoin/internal/relational"
)

// NaiveProbe is the unoptimized E-NLJ of the naive plan (Figure 1): no
// prefetch, so every compared pair invokes the model on both of its
// texts. The build side stays resident as texts, not embeddings; each
// probe block's texts run through core.NaiveNLJ against all of them, so
// the operator pays exactly the quadratic model cost the cost model
// charges the naive strategy, one block at a time.
type NaiveProbe struct {
	Input Operator
	// buildSide supplies BuildRows and the offset remap; its Build
	// matrix stays nil, since the build side is resident as texts.
	buildSide
	// Table/Column locate the probe side's text column.
	Table  *relational.Table
	Column string
	// Model is E_µ, called twice per compared pair.
	Model model.Model
	// BuildTexts holds one text per BuildRows entry.
	BuildTexts []string
	Threshold  float32
	Opts       core.Options

	st    OpStats
	agg   core.Stats
	texts relational.StringColumn
}

// Open resolves the probe side's text column.
func (p *NaiveProbe) Open(ctx context.Context) error {
	p.st = OpStats{Name: "probe:naive-nlj"}
	p.agg = core.Stats{}
	if err := p.Input.Open(ctx); err != nil {
		return err
	}
	if p.Model == nil {
		return fmt.Errorf("exec: naive probe has no model")
	}
	col, err := p.Table.Strings(p.Column)
	if err != nil {
		return err
	}
	p.texts = col
	return nil
}

// Next joins the next block's texts against the resident build texts.
func (p *NaiveProbe) Next(ctx context.Context) (*Batch, error) {
	b, err := p.Input.Next(ctx)
	if err != nil || b == nil {
		return nil, err
	}
	start := time.Now()
	p.st.RowsIn += int64(b.Len())
	texts := make([]string, len(b.Rows))
	for i, r := range b.Rows {
		texts[i] = p.texts[r]
	}
	res, err := core.NaiveNLJ(ctx, p.Model, texts, p.BuildTexts, p.Threshold, p.Opts)
	if err != nil {
		return nil, err
	}
	foldStats(&p.agg, res.Stats)
	b.Matches = p.remap(b.Rows, res.Matches)
	b.Emb, b.Sims = nil, nil
	p.st.RowsOut += int64(len(b.Matches))
	p.st.Batches++
	p.st.Elapsed += time.Since(start)
	return b, nil
}

// Close implements Operator.
func (p *NaiveProbe) Close() error { return p.Input.Close() }

// Stats implements Operator.
func (p *NaiveProbe) Stats() OpStats { return p.st }

// CoreStats is the aggregated kernel accounting across all blocks,
// including the per-pair model calls.
func (p *NaiveProbe) CoreStats() core.Stats { return p.agg }
