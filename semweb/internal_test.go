// White-box tests for internals that public API alone cannot pin down:
// the compile-time pattern snapshot.
package semweb

import "testing"

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
