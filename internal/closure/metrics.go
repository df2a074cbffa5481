package closure

import "semwebdb/internal/obs"

// Saturation metric families (process-global; see internal/obs). The
// engine never touches an atomic per rule firing: it keeps plain local
// counters and flushes them once per run, so instrumentation cost is a
// handful of adds per saturation, not per instantiation.
var (
	saturationsVec = obs.Default.CounterVec("semweb_closure_saturations_total",
		"Saturation runs, by mode (full = from scratch, delta = incremental over a closed base).",
		"mode")
	satFull  = saturationsVec.With("full")
	satDelta = saturationsVec.With("delta")

	saturationSecondsVec = obs.Default.HistogramVec("semweb_closure_seconds",
		"Wall-clock saturation latency, by mode.", nil, "mode")
	satSecondsFull  = saturationSecondsVec.With("full")
	satSecondsDelta = saturationSecondsVec.With("delta")

	ruleFirings = obs.Default.Counter("semweb_closure_rule_firings_total",
		"Rule-instantiation conclusions emitted by the engine, duplicates included (the semi-naive work measure).")
	triplesDerived = obs.Default.Counter("semweb_closure_triples_derived_total",
		"Triples admitted into a closure under construction (novel conclusions plus seeded input).")
)
