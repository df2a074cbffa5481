package semweb

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

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
// The solver runs concurrently with the consumer and is backpressured
// by it: it computes at most one row beyond the one the consumer holds,
// so evaluating a query whose answer has N single answers allocates
// O(max row size), not O(N), ahead of consumption — the first row is
// available as soon as the first matching is found. (The matching
// universe nf(D)/cl(D) is still prepared up front — its cost depends on
// the database, not the answer size — and the dedup fingerprint set
// grows with the distinct rows already delivered.)
//
// Rows arrive in solver enumeration order, which is deterministic for a
// fixed snapshot but is not the canonical sorted order of
// Answer.Singles.
//
// Cancelling the context passed to Stream, or calling Close, aborts the
// solver promptly mid-enumeration. A Rows is not safe for concurrent
// use by multiple goroutines (Close excepted, which may race a reader).
type Rows struct {
	cancel context.CancelFunc
	ch     chan Row
	cur    Row

	// Metric/trace state, fixed by Stream before the producer starts:
	// the wall-clock origin, the matching-universe path labeling
	// semweb_query_seconds, and the per-query trace (nil-safe).
	t0   time.Time
	path string
	tr   *obs.Trace

	mu        sync.Mutex
	closed    bool  // guarded by mu; Close was called
	finished  bool  // guarded by mu; producer goroutine has exited
	err       error // guarded by mu; terminal stream error (wrapped), nil while running
	matchings int   // guarded by mu
	rows      int   // guarded by mu
	truncated bool  // guarded by mu
}

// Stream evaluates q like Eval but returns a cursor over the single
// answers instead of a materialized Answer: rows are produced on
// demand with bounded memory (see Rows). The query's LimitMatchings
// cap is honored — a stream cut off by it reports Truncated once
// exhausted — and ctx cancellation aborts the solver mid-enumeration.
//
// Validation errors surface here, before any row is produced; errors
// during enumeration (cancellation included) surface on Rows.Err after
// Next returns false. Always Close the returned cursor.
func (db *DB) Stream(ctx context.Context, q *Query) (*Rows, error) {
	if q == nil {
		return nil, &malformedQueryError{cause: fmt.Errorf("nil query")}
	}
	iq, err := q.compile()
	if err != nil {
		return nil, err
	}
	opts := query.Options{
		Semantics:      db.cfg.semantics,
		SkipNormalForm: db.cfg.skipNormalForm,
		MaxMatchings:   q.maxMatchings,
	}
	if q.semanticsSet {
		opts.Semantics = q.semantics
	}
	if q.skipNF {
		opts.SkipNormalForm = true
	}
	g := db.snapshot()

	sctx, cancel := context.WithCancel(ctx)
	r := &Rows{cancel: cancel, ch: make(chan Row),
		t0: time.Now(), path: prepPathPremise, tr: obs.TraceFrom(ctx)}
	if iq.Premise == nil || iq.Premise.Len() == 0 {
		// Premise-free: resolve the cached matching universe up front so
		// preparation errors surface synchronously, then stream against
		// the cached match index.
		endPrepare := r.tr.StartSpan("prepare")
		st, path, perr := db.preparedData(sctx, g, opts.SkipNormalForm)
		endPrepare()
		if perr != nil {
			cancel()
			return nil, wrapEngineError(perr)
		}
		r.path = path
		go r.run(sctx, func(yield func(query.Single) bool) (query.StreamStats, error) {
			return query.StreamPreparedIndexCtx(sctx, iq, st.ix, opts, yield)
		})
	} else {
		// A premise changes the matching universe to nf(D + P); the
		// per-call preparation runs inside the producer so the cursor
		// returns immediately.
		go r.run(sctx, func(yield func(query.Single) bool) (query.StreamStats, error) {
			return query.StreamCtx(sctx, iq, g, opts, yield)
		})
	}
	return r, nil
}

// Iter returns a streaming cursor over the single answers of q against
// db; it is Stream with the receiver flipped, for call sites that read
// better query-first. See Rows for the cursor contract.
func (q *Query) Iter(ctx context.Context, db *DB) (*Rows, error) {
	return db.Stream(ctx, q)
}

// run is the producer goroutine: it drives the streaming evaluation,
// handing each row over the unbuffered channel (backpressure), and
// records the terminal state before closing the channel.
func (r *Rows) run(ctx context.Context, stream func(func(query.Single) bool) (query.StreamStats, error)) {
	endStream := r.tr.StartSpan("stream")
	st, err := stream(func(s query.Single) bool {
		select {
		case r.ch <- Row{Single: s.Graph, Bindings: s.Binding, Matching: s.Matching}:
			return true
		case <-ctx.Done():
			// The consumer is gone (Close or context cancellation):
			// stop the solver rather than block forever.
			return false
		}
	})
	if err == nil {
		// The solver can stop through the yield path (blocked on a send
		// when the context died) without observing the cancellation
		// itself; surface it as the stream error in that case too.
		err = ctx.Err()
	}
	r.mu.Lock()
	r.matchings, r.rows, r.truncated = st.Matchings, st.Singles, st.Truncated
	if err != nil {
		// A cancellation triggered by Close itself is a clean shutdown,
		// not a stream error; cancellation of the caller's context (or a
		// deadline) still surfaces.
		if !(r.closed && errors.Is(err, context.Canceled)) {
			r.err = wrapEngineError(err)
		}
	}
	r.finished = true
	r.mu.Unlock()
	endStream()
	// Stream observations include consumer pacing: the producer is
	// backpressured by Next, so this is the row-delivery wall time, not
	// pure solver time.
	querySecondsFor(r.path).ObserveSince(r.t0)
	queryRows.Add(uint64(st.Singles))
	if st.Truncated {
		queryTruncations.Inc()
	}
	close(r.ch)
}

// Next advances the cursor to the next row, blocking until the solver
// produces one. It returns false when the stream is exhausted, was cut
// off by LimitMatchings, failed, or was cancelled — distinguish the
// cases with Err and Truncated.
func (r *Rows) Next() bool {
	row, ok := <-r.ch
	if !ok {
		return false
	}
	r.cur = row
	return true
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

// Matchings counts the body matchings considered so far; after Next
// has returned false it is final and never exceeds a LimitMatchings
// cap (the same contract as Answer.Matchings).
func (r *Rows) Matchings() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.matchings
}

// Count reports the number of rows the stream has emitted. It is final
// after Next has returned false.
func (r *Rows) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rows
}

// Truncated reports whether the stream was cut off by LimitMatchings
// (same contract as Answer.Truncated). It is meaningful once Next has
// returned false.
func (r *Rows) Truncated() bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.truncated
}

// Close aborts the stream if it is still running, waits for the solver
// to stop, and releases the cursor's resources. It is idempotent and
// safe after exhaustion; it returns the terminal stream error, if any
// (Close-induced cancellation is not an error). Every Stream call must
// be paired with a Close.
func (r *Rows) Close() error {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.cancel()
	// Drain until the producer closes the channel: this both unblocks a
	// producer mid-send and makes Close a barrier — after it returns the
	// solver goroutine has exited and the terminal state is final.
	for range r.ch {
	}
	return r.Err()
}
