package query

import (
	"context"

	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
	"semwebdb/internal/match"
	"semwebdb/internal/term"
)

// Single is one streamed single answer v(H): the instantiated head
// graph, the body-variable binding of the (first) matching that
// produced it, and that matching's 1-based ordinal. Singles arrive in
// solver enumeration order — not the deterministic canonical order of
// Answer.Singles, which requires materializing the full answer first.
type Single struct {
	// Graph is v(H), on the evaluation's scratch dictionary overlay;
	// the overlay lives as long as the graph, so the caller may decode
	// and serialize it after the stream has moved on.
	Graph *graph.Graph
	// Binding maps each body variable to its matched term for the
	// matching that first produced this single answer. It is a fresh
	// map per single; the caller owns it.
	Binding map[term.Term]term.Term
	// Matching is the 1-based ordinal of that matching in enumeration
	// order (equal single answers from later matchings are deduplicated
	// away, so ordinals are increasing but not contiguous).
	Matching int
}

// StreamStats summarizes a finished (or aborted) stream.
type StreamStats struct {
	// Matchings counts the matchings of B considered, exactly as
	// Answer.Matchings does; it never exceeds Options.MaxMatchings when
	// that cap is set.
	Matchings int
	// Singles counts the deduplicated single answers handed to yield.
	Singles int
	// Truncated reports that the enumeration was cut off by
	// Options.MaxMatchings (same contract as Answer.Truncated). A
	// stream stopped by its yield callback is not truncated.
	Truncated bool
}

// StreamPreparedIndexCtx evaluates a premise-free query against a
// prepared match index, handing each deduplicated single answer to
// yield as soon as the solver finds it, instead of materializing the
// full answer. Memory stays bounded by the largest single answer plus
// the dedup fingerprint set — not by the number of matchings — so the
// first single arrives after the first successful matching, no matter
// how many follow. yield returning false stops the enumeration early
// (no error, Truncated unset).
//
// Cancellation: the solver polls ctx, so a context cancelled mid-stream
// aborts the enumeration promptly and the error is returned here.
//
// Like EvaluatePreparedIndexCtx, it never interns into the prepared
// graph's dictionary: all evaluation minting lands in a scratch overlay
// that the emitted Graphs keep alive.
func StreamPreparedIndexCtx(ctx context.Context, q *Query, ix *match.Index, opts Options, yield func(Single) bool) (StreamStats, error) {
	if err := q.Validate(); err != nil {
		return StreamStats{}, err
	}
	if err := ctx.Err(); err != nil {
		// A dead context must fail even when the match would be trivial.
		return StreamStats{}, err
	}
	d := ix.Dict().Scratch()
	bodyVars := varsIn(q.Body)
	bodyVarIDs := make([]dict.ID, len(bodyVars))
	for i, v := range bodyVars {
		bodyVarIDs[i] = d.Intern(v)
	}
	return streamIndexed(ctx, q, ix, opts, d, func(single *graph.Graph, b match.Binding, matching int) bool {
		s := Single{Graph: single, Matching: matching}
		if len(bodyVars) > 0 {
			s.Binding = make(map[term.Term]term.Term, len(bodyVars))
			for i, v := range bodyVars {
				if id, ok := b[bodyVarIDs[i]]; ok {
					s.Binding[v] = d.TermOf(id)
				}
			}
		}
		return yield(s)
	})
}

// StreamCtx is the streaming analogue of EvaluateCtx: it computes the
// matching universe nf(D + P) — or cl(D + P) under SkipNormalForm —
// and then streams single answers through yield. The universe
// preparation itself is not streamed (it is a fixpoint computation,
// O(|cl(D+P)|) regardless), but everything after it is: no per-answer
// state accumulates beyond the dedup fingerprints.
func StreamCtx(ctx context.Context, q *Query, d *graph.Graph, opts Options, yield func(Single) bool) (StreamStats, error) {
	if err := q.Validate(); err != nil {
		return StreamStats{}, err
	}
	data := d.WithDict(d.Dict().Scratch())
	if q.Premise != nil && q.Premise.Len() > 0 {
		p := q.Premise.WithDict(q.Premise.Dict().Scratch())
		data = graph.Merge(data, p)
	}
	data, err := Prepare(ctx, data, opts.SkipNormalForm)
	if err != nil {
		return StreamStats{}, err
	}
	return StreamPreparedIndexCtx(ctx, q, match.NewIndex(data), opts, yield)
}

// streamIndexed is the dictionary-encoded matching loop shared by the
// materializing (evaluateIndexed) and streaming (Stream*) paths: the
// body is solved over ID range scans and each matching instantiates
// the head by ID substitution; deduplicated single answers are handed
// to emit one at a time, in solver enumeration order. The caller
// supplies the scratch overlay d (over ix.Dict()) that owns all
// evaluation minting. emit returning false stops the enumeration
// early; that is not a truncation.
func streamIndexed(ctx context.Context, q *Query, ix *match.Index, opts Options, d *dict.Dict, emit func(single *graph.Graph, b match.Binding, matching int) bool) (StreamStats, error) {
	inst := newHeadInstantiator(q, d)

	constrained := make(map[dict.ID]bool, len(q.Constraints))
	for v := range q.Constraints {
		constrained[d.Intern(v)] = true
	}

	var st StreamStats
	seen := map[string]bool{}

	solverOpts := match.Options{
		Ctx:  ctx,
		Dict: d,
		Admissible: func(unknown, value dict.ID) bool {
			if constrained[unknown] && d.KindOf(value) == term.KindBlank {
				return false
			}
			return true
		},
	}
	solver := match.NewSolver(ix, solverOpts)
	solver.Solve(q.Body, func(b match.Binding) bool {
		if opts.MaxMatchings > 0 && st.Matchings >= opts.MaxMatchings {
			// A further matching exists beyond the cap: record the
			// truncation and stop without considering it, so Matchings
			// stays within the cap and a body with exactly MaxMatchings
			// matchings is not reported as truncated.
			st.Truncated = true
			return false
		}
		st.Matchings++
		encs, key, ok := inst.instantiate(b)
		if !ok {
			return true // v(H) not a well-formed RDF graph: skipped
		}
		if seen[key] {
			return true
		}
		seen[key] = true
		single := graph.NewWithDict(d)
		for _, enc := range encs {
			single.AddID(enc)
		}
		st.Singles++
		return emit(single, b, st.Matchings)
	})
	if err := solver.Err(); err != nil {
		return st, err
	}
	return st, nil
}
