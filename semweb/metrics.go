package semweb

import "semwebdb/internal/obs"

// Query-engine metric families (process-global; see internal/obs).
// semweb_query_seconds is labeled by how the matching universe was
// resolved, which is the dominant cost split: a cached hit pays only
// matching, delta pays incremental maintenance, full pays a from-scratch
// saturation or nf(D) core, and premise queries always build a
// per-query universe.
var (
	querySecondsVec = obs.Default.HistogramVec("semweb_query_seconds",
		"End-to-end Eval/Stream latency, by matching-universe path (cached = prepared-universe hit, delta = incremental maintenance, full = from-scratch prepare, premise = per-query universe). Stream observations include consumer pacing.",
		nil, "path")
	querySecondsCached  = querySecondsVec.With("cached")
	querySecondsDelta   = querySecondsVec.With("delta")
	querySecondsFull    = querySecondsVec.With("full")
	querySecondsPremise = querySecondsVec.With("premise")

	queryRows = obs.Default.Counter("semweb_query_rows_total",
		"Single answers produced across Eval and Stream.")
	queryTruncations = obs.Default.Counter("semweb_query_truncations_total",
		"Evaluations cut off by a LimitMatchings cap.")

	compactionsVec = obs.Default.CounterVec("semweb_db_compactions_total",
		"Dictionary compactions, by trigger (manual = Compact, auto = the Snapshot bloat threshold).",
		"trigger")
	compactionsManual = compactionsVec.With("manual")
	compactionsAuto   = compactionsVec.With("auto")
)
