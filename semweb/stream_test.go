package semweb_test

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"semwebdb/semweb"
)

// streamDB returns an in-memory database with n ground triples
// <urn:s:i> <urn:p> <urn:o:i>, and a query matching all of them.
func streamDB(t testing.TB, n int) (*semweb.DB, *semweb.Query) {
	t.Helper()
	db, err := semweb.Open()
	if err != nil {
		t.Fatal(err)
	}
	var doc strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&doc, "<urn:s:%d> <urn:p> <urn:o:%d> .\n", i, i)
	}
	if err := db.LoadNTriples(strings.NewReader(doc.String())); err != nil {
		t.Fatal(err)
	}
	X, Y := semweb.Var("X"), semweb.Var("Y")
	q := semweb.NewQuery().
		Head(semweb.T(X, semweb.IRI("urn:q"), Y)).
		Body(semweb.T(X, semweb.IRI("urn:p"), Y))
	return db, q
}

// TestStreamMatchesEval verifies the cursor delivers exactly the single
// answers of Eval, with bindings and final statistics agreeing.
func TestStreamMatchesEval(t *testing.T) {
	db, q := streamDB(t, 23)
	ctx := context.Background()

	ans, err := db.Eval(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, s := range ans.Singles() {
		want[semweb.NTriples(s)] = true
	}

	rows, err := db.Stream(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	got := map[string]bool{}
	for rows.Next() {
		row := rows.Row()
		key := semweb.NTriples(row.Single)
		if got[key] {
			t.Errorf("duplicate row %q", key)
		}
		got[key] = true
		if len(row.Bindings) != 2 {
			t.Errorf("row bindings = %v, want ?X and ?Y", row.Bindings)
		}
		if row.Matching < 1 || row.Matching > 23 {
			t.Errorf("matching ordinal %d out of range", row.Matching)
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("stream delivered %d rows, Eval had %d singles", len(got), len(want))
	}
	for k := range want {
		if !got[k] {
			t.Errorf("single %q missing from stream", k)
		}
	}
	if rows.Matchings() != ans.Matchings() {
		t.Errorf("Matchings = %d, want %d", rows.Matchings(), ans.Matchings())
	}
	if rows.Count() != len(want) {
		t.Errorf("Count = %d, want %d", rows.Count(), len(want))
	}
	if rows.Truncated() {
		t.Error("complete stream reports Truncated")
	}
}

// TestStreamLimitMatchings mirrors the Eval truncation contract on the
// cursor: Truncated is set exactly when a matching beyond the cap was
// discarded.
func TestStreamLimitMatchings(t *testing.T) {
	db, q := streamDB(t, 4)
	ctx := context.Background()
	cases := []struct {
		limit         int
		wantRows      int
		wantMatchings int
		wantTruncated bool
	}{
		{0, 4, 4, false},
		{2, 2, 2, true},
		{4, 4, 4, false}, // cap == matchings: complete
		{9, 4, 4, false},
	}
	for _, c := range cases {
		rows, err := db.Stream(ctx, q.LimitMatchings(c.limit))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for rows.Next() {
			n++
		}
		if err := rows.Err(); err != nil {
			t.Fatalf("limit %d: %v", c.limit, err)
		}
		if n != c.wantRows || rows.Matchings() != c.wantMatchings || rows.Truncated() != c.wantTruncated {
			t.Errorf("limit %d: rows=%d matchings=%d truncated=%v, want %d/%d/%v",
				c.limit, n, rows.Matchings(), rows.Truncated(),
				c.wantRows, c.wantMatchings, c.wantTruncated)
		}
		if err := rows.Close(); err != nil {
			t.Fatalf("limit %d: Close: %v", c.limit, err)
		}
	}
}

// TestStreamFirstRowBounded is the first-row-latency regression test:
// the solver advances only inside Next, so after the consumer has read
// one row of an n-row answer, the solver has enumerated only O(1)
// matchings — not the whole answer.
func TestStreamFirstRowBounded(t *testing.T) {
	const n = 10000
	db, q := streamDB(t, n)
	rows, err := db.Stream(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	// The solver is suspended at the row the consumer holds; allow
	// generous slack for the in-flight matching.
	if m := rows.Matchings(); m > 16 {
		t.Fatalf("after first row the solver had enumerated %d of %d matchings; cursor is not backpressured", m, n)
	}
	// Early Close must abort the solver without draining all n rows.
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if m := rows.Matchings(); m > 64 {
		t.Fatalf("after early Close the solver had enumerated %d of %d matchings", m, n)
	}
}

// TestStreamCancelMidStream cancels the context after the first row and
// verifies the solver aborts promptly with ErrCancelled.
func TestStreamCancelMidStream(t *testing.T) {
	const n = 10000
	db, q := streamDB(t, n)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rows, err := db.Stream(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for rows.Next() {
		if time.Now().After(deadline) {
			t.Fatal("stream still delivering rows long after cancellation")
		}
	}
	if err := rows.Err(); !errors.Is(err, semweb.ErrCancelled) {
		t.Fatalf("Err = %v, want ErrCancelled", err)
	}
	if m := rows.Matchings(); m >= n {
		t.Fatalf("solver enumerated all %d matchings despite cancellation", m)
	}
}

// TestStreamCloseIsClean verifies Close after exhaustion and double
// Close are no-ops, and that Close-induced cancellation is not an
// error.
func TestStreamCloseIsClean(t *testing.T) {
	db, q := streamDB(t, 3)
	rows, err := db.Stream(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	for rows.Next() {
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("Close after exhaustion: %v", err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("Err after clean Close: %v", err)
	}

	// Close immediately, without reading a single row.
	rows, err = db.Stream(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if err := rows.Close(); err != nil {
		t.Fatalf("immediate Close: %v", err)
	}
}

// TestStreamCloseUnblocksNext closes the cursor from a second goroutine
// while Next is blocked in an enumeration that would search for about a
// minute without finding a row: both calls must return promptly, Next with
// false, and the Close-induced cancellation must not count as an error.
func TestStreamCloseUnblocksNext(t *testing.T) {
	db, q, err := hardQuery(10) // K10 pattern, K9 data: no matching, long exhaustive search
	if err != nil {
		t.Fatal(err)
	}
	rows, err := db.Stream(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		closed <- rows.Close()
	}()
	start := time.Now()
	if rows.Next() {
		t.Fatal("Next delivered a row of an unsatisfiable query")
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close took %v to unblock Next, want prompt (<2s)", elapsed)
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("Err after Close = %v, want nil", err)
	}
}

// TestStreamPremise routes a premised query through the cursor: the
// matching universe becomes nf(D + P), prepared by Stream itself — so a
// dead context fails there, not on Rows.Err.
func TestStreamPremise(t *testing.T) {
	db, q := streamDB(t, 2)
	q = q.WithPremiseTriples(semweb.T(
		semweb.IRI("urn:s:77"), semweb.IRI("urn:p"), semweb.IRI("urn:o:77")))
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := db.Stream(dead, q); !errors.Is(err, semweb.ErrCancelled) {
		t.Fatalf("Stream under a dead context = %v, want ErrCancelled", err)
	}
	rows, err := db.Stream(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	defer rows.Close()
	seen := map[string]bool{}
	for rows.Next() {
		for v, b := range rows.Row().Bindings {
			if v.Value == "X" {
				seen[b.String()] = true
			}
		}
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 || !seen["<urn:s:77>"] {
		t.Fatalf("bindings for ?X = %v, want the 2 data subjects plus the premise one", seen)
	}
}

// TestStreamMalformedQuery verifies validation errors surface on Stream
// itself, before a cursor exists.
func TestStreamMalformedQuery(t *testing.T) {
	db, _ := streamDB(t, 1)
	X := semweb.Var("X")
	bad := semweb.NewQuery().Head(semweb.T(X, semweb.IRI("urn:q"), X)) // head var not in body
	if _, err := db.Stream(context.Background(), bad); !errors.Is(err, semweb.ErrMalformedQuery) {
		t.Fatalf("err = %v, want ErrMalformedQuery", err)
	}
	if _, err := db.Stream(context.Background(), nil); !errors.Is(err, semweb.ErrMalformedQuery) {
		t.Fatalf("nil query err = %v, want ErrMalformedQuery", err)
	}
}

// TestStreamDictInvariant: streaming query traffic must not grow the
// shared dictionary, exactly like Eval (the scratch-overlay invariant).
func TestStreamDictInvariant(t *testing.T) {
	db, q := streamDB(t, 8)
	before := db.Stats().DictTerms
	for i := 0; i < 3; i++ {
		rows, err := db.Stream(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		for rows.Next() {
		}
		if err := rows.Close(); err != nil {
			t.Fatal(err)
		}
	}
	if after := db.Stats().DictTerms; after != before {
		t.Fatalf("DictTerms grew under streaming traffic: %d -> %d", before, after)
	}
}
