package main

import (
	"encoding/json"
	"io"
)

// This file is the single source of the benchmark's contract: workload
// names, metric names, units, directions and bounds. BENCHMARK.json at
// the repository root is `semwebbench -spec` verbatim (TestSpecMatchesFile
// keeps the two from drifting), and -compare reads its bounds from here.

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// metricSpec describes one metric. Only end-to-end metrics carry a
// bound; a zero bound is left out of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is the timed window the driver passes as --seconds.
const runSeconds = 20

var workloadSpecs = []workloadSpec{
	{"point_read", "read-only point lookups and 2-pattern stars with distinct constants: plan cache, interning and HTTP/encode overhead show here; write-path changes must not move it"},
	{"join_stream", "read-only 5000-row streams of three join shapes: solver and per-row encode+flush dominate; the workload a join strategy or batched flushing moves and point_read bypasses"},
	{"write_read", "durable one-triple loads each followed by a read of the written subject, with periodic checkpoints: clone, WAL fsync, delta closure and index merge dominate"},
	{"bulk_recover", "operator path: chunked 100k bulk load, snapshot, WAL tail, restart, first query: parser, bulk intern, snapshot codec, replay and full closure, which no other workload exercises"},
}

// endToEnd lists what a client of the service sees. Every workload
// reports every one of them; bench/README.md says what "op" is on each
// and records the measured spread each bound is three times or more.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"op_p50_ms", "ms", "lower", 0.20},
	{"op_p95_ms", "ms", "lower", 0.25},
	{"query_p50_ms", "ms", "lower", 0.20},
	{"cpu_ms_per_op", "ms", "lower", 0.20},
	{"live_heap_mb", "MiB", "lower", 0.05},
	{"disk_bytes_per_triple", "B", "lower", 0.05},
}

// perLayer lists the traced-run metrics, layer = package name. A layer a
// workload does not exercise reports 0 there.
var perLayer = []metricSpec{
	{Name: "serve.handler_query_us", Unit: "us", Better: "lower"},
	{Name: "serve.handler_load_us", Unit: "us", Better: "lower"},
	{Name: "serve.overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.encode_us_per_row", Unit: "us", Better: "lower"},
	{Name: "serve.http_5xx", Unit: "count", Better: "lower"},

	{Name: "query.parse_us", Unit: "us", Better: "lower"},
	{Name: "query.stream_self_us", Unit: "us", Better: "lower"},
	{Name: "query.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "query.rows", Unit: "count", Better: "higher"},
	{Name: "query.matchings", Unit: "count", Better: "lower"},

	{Name: "match.solve_us", Unit: "us", Better: "lower"},
	{Name: "match.shape_type_scan_ms", Unit: "ms", Better: "lower"},
	{Name: "match.shape_chain3_ms", Unit: "ms", Better: "lower"},
	{Name: "match.shape_star3_ms", Unit: "ms", Better: "lower"},
	{Name: "match.index_build_ms", Unit: "ms", Better: "lower"},
	{Name: "match.index_extend_us", Unit: "us", Better: "lower"},

	{Name: "dict.scratch_intern_us", Unit: "us", Better: "lower"},
	{Name: "dict.intern_ns_per_term", Unit: "ns", Better: "lower"},
	{Name: "dict.terms", Unit: "count", Better: "lower"},
	{Name: "dict.interns", Unit: "count", Better: "lower"},

	{Name: "graph.clone_us", Unit: "us", Better: "lower"},
	{Name: "graph.add_ns_per_triple", Unit: "ns", Better: "lower"},
	{Name: "graph.triples", Unit: "count", Better: "higher"},

	{Name: "closure.delta_apply_us", Unit: "us", Better: "lower"},
	{Name: "closure.maintainer_seed_ms", Unit: "ms", Better: "lower"},
	{Name: "closure.derived_per_batch", Unit: "count", Better: "lower"},
	{Name: "closure.full_ms", Unit: "ms", Better: "lower"},
	{Name: "closure.rule_firings", Unit: "count", Better: "lower"},
	{Name: "closure.useful_ratio", Unit: "ratio", Better: "higher"},

	{Name: "persist.append_us", Unit: "us", Better: "lower"},
	{Name: "persist.fsync_us", Unit: "us", Better: "lower"},
	{Name: "persist.fsyncs_per_commit", Unit: "ratio", Better: "lower"},
	{Name: "persist.wal_bytes_per_triple", Unit: "B", Better: "lower"},
	{Name: "persist.snapshot_write_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.snapshot_bytes_per_triple", Unit: "B", Better: "lower"},
	{Name: "persist.open_ms", Unit: "ms", Better: "lower"},
	{Name: "persist.replay_records", Unit: "count", Better: "lower"},

	{Name: "repl.bootstrap_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.catchup_ms", Unit: "ms", Better: "lower"},
	{Name: "repl.applied_bytes", Unit: "B", Better: "lower"},

	{Name: "ntriples.parse_ns_per_triple", Unit: "ns", Better: "lower"},

	{Name: "semweb.prepared_full", Unit: "count", Better: "lower"},
	{Name: "semweb.prepared_delta", Unit: "count", Better: "higher"},
	{Name: "semweb.prepared_fallbacks", Unit: "count", Better: "lower"},
	{Name: "semweb.add_us", Unit: "us", Better: "lower"},
	{Name: "semweb.eval_us", Unit: "us", Better: "lower"},

	{Name: "client.query_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.load_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.load_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.ryw_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.ttfr_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.rows_per_s", Unit: "rows/s", Better: "higher"},
	{Name: "client.bulk_triples_per_s", Unit: "triples/s", Better: "higher"},
	{Name: "client.open_s", Unit: "s", Better: "lower"},
	{Name: "client.cold_query_s", Unit: "s", Better: "lower"},
	{Name: "client.samples", Unit: "count", Better: "higher"},

	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},

	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
}

func specOf(list []metricSpec, name string) (metricSpec, bool) {
	for _, m := range list {
		if m.Name == name {
			return m, true
		}
	}
	return metricSpec{}, false
}

// writeSpec renders BENCHMARK.json.
func writeSpec(w io.Writer) error {
	doc := struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metricSpec   `json:"end_to_end"`
		PerLayer   []metricSpec   `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench", "cmd/semwebbench"},
		RunSeconds: runSeconds,
		Workloads:  workloadSpecs,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
