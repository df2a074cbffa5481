// White-box tests for internals that public API alone cannot pin down:
// the compile-time pattern snapshot, the prepare wait and the commit
// order.
package semweb

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestCompileSnapshotsBuilderSlices is the regression test for the
// builder slice-aliasing bug: Head/Body grow slices with append, so two
// builders derived from one prefix can share a backing array, and an
// append through one used to rewrite patterns a query compiled from the
// other still reads. compile must snapshot.
func TestCompileSnapshotsBuilderSlices(t *testing.T) {
	o := IRI("urn:o")
	X := Var("X")
	// Three appends leave the body slice with spare capacity (len 3,
	// cap 4), the precondition for backing-array sharing.
	a := NewQuery().
		Head(T(X, IRI("urn:h"), o)).
		Body(T(X, IRI("urn:p1"), o)).
		Body(T(X, IRI("urn:p2"), o)).
		Body(T(X, IRI("urn:p3"), o))
	if cap(a.body) <= len(a.body) {
		t.Skipf("append produced no spare capacity (len %d, cap %d); scenario not constructible", len(a.body), cap(a.body))
	}

	b := *a // derive a second query from the shared prefix
	(&b).Body(T(X, IRI("urn:pB"), o))

	iq, err := (&b).compile()
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Triple, len(iq.Body))
	copy(want, iq.Body)

	// Appending through the first builder writes the same backing slot
	// b's fourth pattern lives in.
	a.Body(T(X, IRI("urn:pA"), o))

	for i := range want {
		if iq.Body[i] != want[i] {
			t.Fatalf("compiled body[%d] changed from %v to %v after a sibling append", i, want[i], iq.Body[i])
		}
	}
	if got := b.body[3].P; got != IRI("urn:pB") {
		// The builder value itself is expected to see the stomp (that is
		// inherent to copying slice-backed builders); the compiled query
		// above must not. Document the distinction here.
		t.Logf("builder copy sees sibling append (%v), as Go slice semantics dictate", got)
	}
}

// TestHeadSnapshotToo: same guarantee for the head slice.
func TestHeadSnapshotToo(t *testing.T) {
	X := Var("X")
	o := IRI("urn:o")
	a := NewQuery().
		Body(T(X, IRI("urn:p"), o)).
		Head(T(X, IRI("urn:h1"), o)).
		Head(T(X, IRI("urn:h2"), o)).
		Head(T(X, IRI("urn:h3"), o))
	if cap(a.head) <= len(a.head) {
		t.Skip("no spare head capacity")
	}
	b := *a
	(&b).Head(T(X, IRI("urn:hB"), o))
	iq, err := (&b).compile()
	if err != nil {
		t.Fatal(err)
	}
	before := iq.Head[3]
	a.Head(T(X, IRI("urn:hA"), o))
	if iq.Head[3] != before {
		t.Fatalf("compiled head[3] changed from %v to %v", before, iq.Head[3])
	}
}

// TestPrepareWaitHonoursDeadline: a reader waiting for another reader's
// prepare gives up when its own context ends, not when the prepare
// does.
func TestPrepareWaitHonoursDeadline(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add(T(IRI("urn:s"), IRI("urn:p"), IRI("urn:o"))); err != nil {
		t.Fatal(err)
	}
	db.prepSlot <- struct{}{} // another reader's prepare, in progress
	defer func() { <-db.prepSlot }()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	q := NewQuery().Head(T(Var("X"), IRI("urn:q"), IRI("urn:o"))).Body(T(Var("X"), IRI("urn:p"), IRI("urn:o")))
	done := make(chan error, 1)
	go func() {
		_, err := db.Eval(ctx, q)
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCancelled) {
			t.Fatalf("Eval = %v, want an error wrapping ErrCancelled", err)
		}
	case <-time.After(500 * time.Millisecond):
		t.Fatal("Eval ignored its 50 ms deadline while waiting for the prepare")
	}
}

// TestCommitLogsBeforePublishing: a batch whose log step fails is not
// published — the database reads exactly as before the Add.
func TestCommitLogsBeforePublishing(t *testing.T) {
	db, err := OpenAt(t.TempDir(), WithoutFsync())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Add(T(IRI("urn:s"), IRI("urn:p"), IRI("urn:o"))); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	fp, err := db.Fingerprint(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.eng.Close(); err != nil {
		t.Fatal(err)
	}
	err = db.Add(T(IRI("urn:s"), IRI("urn:p"), IRI("urn:o2")))
	if err == nil || errors.Is(err, ErrClosed) || errors.Unwrap(err) == nil {
		t.Fatalf("Add with a closed log = %v, want the wrapped logging error", err)
	}
	if n := db.Len(); n != 1 {
		t.Fatalf("failed Add published: Len = %d, want 1", n)
	}
	if got, err := db.Fingerprint(ctx); err != nil || got != fp {
		t.Fatalf("failed Add changed the Fingerprint: %s (%v), want %s", got, err, fp)
	}
}
