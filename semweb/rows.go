package semweb

import (
	"context"
	"errors"
	"iter"
	"sync"
	"sync/atomic"

	"semwebdb/internal/obs"
	"semwebdb/internal/query"
)

// Row is one streamed single answer v(H), as delivered by a Rows
// cursor.
type Row struct {
	// Single is v(H): the instantiated head graph of one matching
	// (deduplicated — equal single answers from later matchings are
	// suppressed, exactly as in Answer.Singles).
	Single *Graph
	// Bindings maps each body variable to the term it matched, for the
	// matching that first produced this single answer. The map is owned
	// by the Row.
	Bindings map[Term]Term
	// Matching is the 1-based ordinal of that matching in enumeration
	// order. Ordinals are increasing but not contiguous (matchings whose
	// single answer was already emitted are skipped).
	Matching int
}

// Rows is a streaming cursor over the single answers of a query — the
// memory-bounded alternative to Eval. Usage follows database/sql:
//
//	rows, err := db.Stream(ctx, q)
//	if err != nil { ... }
//	defer rows.Close()
//	for rows.Next() {
//		row := rows.Row()
//		// consume row
//	}
//	if err := rows.Err(); err != nil { ... }
//
// Rows is a pull cursor: the solver runs on the goroutine calling Next,
// and only inside Next — it advances to the next single answer and
// suspends there until Next is called again (iter.Pull). Evaluating a
// query whose answer has N single answers therefore allocates O(max row
// size), not O(N), ahead of consumption, and the first row is available
// as soon as the first matching is found. (The matching universe
// nf(D)/cl(D) or nf(D + P) is prepared up front, by Stream — its cost
// depends on the database, not the answer size — and the dedup
// fingerprint set grows with the distinct rows already delivered.) A
// panic in the solver surfaces from Next, on the caller's goroutine.
//
// Rows arrive in solver enumeration order, which is deterministic for a
// fixed snapshot but is not the canonical sorted order of
// Answer.Singles.
//
// Cancelling the context passed to Stream, or calling Close, aborts the
// solver promptly mid-enumeration. A Rows is not safe for concurrent
// use by multiple goroutines, Close excepted: Close may be called from
// another goroutine while Next is blocked, and then both return.
type Rows struct {
	ctx    context.Context // Stream's ctx, cancelled by Close
	cancel context.CancelFunc
	plan   *queryPlan
	cur    Row

	// closed is set by Close before it cancels ctx, so produce can tell
	// a Close-induced cancellation from the caller's.
	closed atomic.Bool

	// mu serializes next and stop — iter.Pull forbids calling them
	// concurrently — and so Next against a Close from another
	// goroutine; produce runs only inside them.
	mu   sync.Mutex
	next func() (Row, bool) // guarded by mu
	stop func()             // guarded by mu
	err  error              // guarded by mu; terminal stream error (wrapped), nil while running
	st   query.StreamStats  // guarded by mu; final once produce returns
}

// Stream evaluates q like Eval but returns a cursor over the single
// answers instead of a materialized Answer: rows are produced on
// demand with bounded memory (see Rows). The query's LimitMatchings
// cap is honored — a stream cut off by it reports Truncated once
// exhausted — and ctx cancellation aborts the solver mid-enumeration.
//
// Stream resolves the matching universe before it returns — from the
// prepared cache for a premise-free query, built per query for a
// premised one — so validation and preparation errors (cancellation
// during preparation included) surface here, before any row is
// produced. Errors during enumeration surface on Rows.Err after Next
// returns false. Always Close the returned cursor.
func (db *DB) Stream(ctx context.Context, q *Query) (*Rows, error) {
	p, err := db.plan(ctx, q)
	if err != nil {
		return nil, err
	}
	sctx, cancel := context.WithCancel(ctx)
	r := &Rows{ctx: sctx, cancel: cancel, plan: p}
	r.next, r.stop = iter.Pull(r.produce)
	return r, nil
}

// produce is the cursor's iterator body: it drives the streaming core,
// yielding each single answer as a Row, then records the terminal state
// and the query's metrics. iter.Pull runs it only inside next and stop,
// and their callers (Next, Close) hold mu — so the caller must hold mu.
// A cursor closed before its first Next never runs it: nothing is
// enumerated and no query observation is recorded.
func (r *Rows) produce(yield func(Row) bool) {
	endStream := obs.TraceFrom(r.ctx).StartSpan("stream")
	st, err := query.StreamPreparedIndexCtx(r.ctx, r.plan.iq, r.plan.ix, r.plan.opts, func(s query.Single) bool {
		return yield(Row{Single: s.Graph, Bindings: s.Binding, Matching: s.Matching})
	})
	endStream()
	r.st = st
	// A cancellation triggered by Close itself is a clean shutdown, not
	// a stream error; cancellation of the caller's context (or a
	// deadline) still surfaces.
	if err != nil && !(r.closed.Load() && errors.Is(err, context.Canceled)) {
		r.err = wrapEngineError(err)
	}
	// The solver advances only inside Next, so this is the row-delivery
	// wall time, consumer pacing included — not pure solver time.
	r.plan.observe(st.Singles, st.Truncated)
}

// Next advances the cursor to the next row, running the solver until
// it produces one. It returns false when the stream is exhausted, was
// cut off by LimitMatchings, failed, or was cancelled or closed —
// distinguish the cases with Err and Truncated.
func (r *Rows) Next() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	row, ok := r.next()
	if ok {
		r.cur = row
	}
	return ok
}

// Row returns the row Next advanced to. It is valid until the next
// call to Next.
func (r *Rows) Row() Row { return r.cur }

// Err returns the terminal stream error: nil while rows are still
// flowing, nil after a clean exhaustion or a Close, and an error
// wrapping ErrCancelled when the stream was aborted by context
// cancellation or deadline expiry.
func (r *Rows) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Matchings counts the body matchings considered; it is final once
// Next has returned false and never exceeds a LimitMatchings cap (the
// same contract as Answer.Matchings).
func (r *Rows) Matchings() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st.Matchings
}

// Count reports the number of rows the stream has emitted. It is final
// after Next has returned false.
func (r *Rows) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st.Singles
}

// Truncated reports whether the stream was cut off by LimitMatchings
// (same contract as Answer.Truncated). It is meaningful once Next has
// returned false.
func (r *Rows) Truncated() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.st.Truncated
}

// Close aborts the stream if it is still running and releases the
// cursor's resources; after it returns the solver has stopped and the
// terminal state is final. It is idempotent and safe after exhaustion,
// and it may be called from another goroutine while Next is blocked —
// Next then returns false. It returns the terminal stream error, if any
// (Close-induced cancellation is not an error). Every Stream call must
// be paired with a Close.
func (r *Rows) Close() error {
	// Mark, then cancel: a solver observing the cancellation must see
	// closed. The cancellation also unblocks a Next holding mu in
	// another goroutine, so taking mu afterwards cannot deadlock.
	r.closed.Store(true)
	r.cancel()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stop()
	return r.err
}
