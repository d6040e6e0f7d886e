package main

import (
	"fmt"

	"ejoin/internal/quant"
)

// shape is one query form of the scan workloads. Each table pair exists in
// three declared precisions: l/r (auto, runs exact f32), l8/r8 (int8) and
// l16/r16 (f16), so the precision ladder is on the request path.
type shape struct {
	Name      string
	Left      string // table names
	Right     string
	Prec      quant.Precision
	TopK      int
	Threshold float64
	// LeftIDBelow > 0 adds WHERE <left>.id < LeftIDBelow.
	LeftIDBelow int
}

// scanShapes are the five equally weighted shapes of join-scan and
// sharded-scan. An odd count keeps p50 and p95 away from a boundary
// between shapes.
var scanShapes = []shape{
	{Name: "thr-f32", Left: "l", Right: "r", Prec: quant.PrecisionF32, Threshold: scanThreshold},
	{Name: "topk-f32", Left: "l", Right: "r", Prec: quant.PrecisionF32, TopK: scanTopK},
	{Name: "thr-int8", Left: "l8", Right: "r8", Prec: quant.PrecisionInt8, Threshold: scanThreshold},
	{Name: "thr-f16", Left: "l16", Right: "r16", Prec: quant.PrecisionF16, Threshold: scanThreshold, LeftIDBelow: 128},
	{Name: "thr-f32-sel", Left: "l", Right: "r", Prec: quant.PrecisionF32, Threshold: selThreshold, LeftIDBelow: 256},
}

// matchShape is fresh-match's query; Left is filled with the connection's
// own probe table.
var matchShape = shape{Name: "match-topk", Right: "catalog", Prec: quant.PrecisionF32, TopK: matchTopK}

// allShapes names every shape any workload runs, in report order.
var allShapes = append(append([]shape(nil), scanShapes...), matchShape)

// SQL renders the shape as sqlish text.
func (s shape) SQL() string {
	var on string
	if s.TopK > 0 {
		on = fmt.Sprintf("TOPK(%s.name, %s.title, %d)", s.Left, s.Right, s.TopK)
	} else {
		on = fmt.Sprintf("SIM(%s.name, %s.title) >= %g", s.Left, s.Right, s.Threshold)
	}
	q := fmt.Sprintf("SELECT * FROM %s JOIN %s ON %s", s.Left, s.Right, on)
	if s.LeftIDBelow > 0 {
		q += fmt.Sprintf(" WHERE %s.id < %d", s.Left, s.LeftIDBelow)
	}
	return q
}

// withLeft is s over another left table.
func (s shape) withLeft(table string) shape {
	s.Left = table
	return s
}

// workload is one traffic mix and the server configuration it runs on.
type workload struct {
	Name string
	// ServerArgs are ejserve flags beyond -addr (and -data-dir, which
	// fresh-match adds per boot).
	ServerArgs []string
	Shards     int
	Durable    bool
	// OpenLoopRate > 0 selects an open loop at this many requests per
	// second; otherwise a closed loop.
	OpenLoopRate float64
	// Clients is the number of connections the load generator uses: the
	// closed loop's clients, or the open loop's connections.
	Clients int
}

const (
	// maxClients bounds any workload's connections: the host's two cores.
	maxClients = 2
	// matchStoreBytes bounds fresh-match's embedding store: a few times
	// smaller than the novel strings one run embeds, so eviction runs
	// throughout the measured window.
	matchStoreBytes = 12 << 20
	// matchRate is fresh-match's fixed arrival rate, about half of the
	// capacity measured on a 2-vCPU Xeon (GOMAXPROCS=2). It is frozen so
	// that runs on different commits offer the same load.
	matchRate = 6.5
	// minSamples gives p95 at least ten samples beyond it.
	minSamples = 200
)

var workloads = map[string]workload{
	// The scan workloads run one client: ejserve runs a query on one
	// thread, so one client keeps one core busy with the query and leaves
	// the other to the load generator, the HTTP stack and the collector.
	// A second client would make each latency depend on which shape runs
	// beside it and on how the two cores are shared.
	"join-scan":    {Name: "join-scan", Shards: 1, Clients: 1},
	"sharded-scan": {Name: "sharded-scan", ServerArgs: []string{"-shards", "4", "-partitioner", "hash"}, Shards: 4, Clients: 1},
	// fresh-match keeps two connections, so a request due while another
	// is still running is sent on time rather than queued behind it.
	"fresh-match": {Name: "fresh-match", ServerArgs: []string{"-store-bytes", fmt.Sprint(matchStoreBytes)},
		Shards: 1, Durable: true, OpenLoopRate: matchRate, Clients: maxClients},
}

// scanTables lists the tables the scan workloads ingest: each side in
// three declared precisions.
func scanTables(in scanInputs) []tableSpec {
	var out []tableSpec
	for _, p := range []struct {
		suffix string
		prec   quant.Precision
	}{{"", quant.PrecisionAuto}, {"8", quant.PrecisionInt8}, {"16", quant.PrecisionF16}} {
		out = append(out,
			tableSpec{Name: "l" + p.suffix, Schema: "id:int,name:text", CSV: textCSV("id", "name", in.Left), Prec: p.prec},
			tableSpec{Name: "r" + p.suffix, Schema: "id:int,title:text", CSV: textCSV("id", "title", in.Right), Prec: p.prec})
	}
	return out
}

// catalogTable and probeTable are fresh-match's resident and per-request
// tables. The probe side uses the name column and the catalog the title
// column, so one shape renderer serves both workloads.
func catalogTable(m *matchStream) tableSpec {
	return tableSpec{Name: "catalog", Schema: "id:int,title:text", CSV: textCSV("id", "title", m.Catalog)}
}

func probeTable(name string, batch []string) tableSpec {
	return tableSpec{Name: name, Schema: "id:int,name:text", CSV: textCSV("id", "name", batch)}
}

// tableSpec is one POST /tables body.
type tableSpec struct {
	Name   string
	Schema string
	CSV    string
	Prec   quant.Precision
}
