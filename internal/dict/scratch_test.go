package dict

import (
	"fmt"
	"sync"
	"testing"

	"semwebdb/internal/term"
)

func TestScratchReadsFallThrough(t *testing.T) {
	base := New()
	var ids []ID
	for i := 0; i < 100; i++ {
		ids = append(ids, base.Intern(term.NewIRI(fmt.Sprintf("urn:x:%d", i))))
	}
	s := base.Scratch()
	if s.Len() != base.Len() {
		t.Fatalf("scratch Len = %d, want %d", s.Len(), base.Len())
	}
	for i, id := range ids {
		want := term.NewIRI(fmt.Sprintf("urn:x:%d", i))
		if got := s.TermOf(id); got != want {
			t.Fatalf("TermOf(%d) = %v, want %v", id, got, want)
		}
		if got := s.KindOf(id); got != term.KindIRI {
			t.Fatalf("KindOf(%d) = %v, want iri", id, got)
		}
		if got, ok := s.Lookup(want); !ok || got != id {
			t.Fatalf("Lookup(%v) = %d,%v, want %d,true", want, got, ok, id)
		}
		// Interning a base term through the scratch returns the base ID.
		if got := s.Intern(want); got != id {
			t.Fatalf("Intern(%v) = %d, want base ID %d", want, got, id)
		}
	}
	if base.Len() != 100 {
		t.Fatalf("base grew to %d during scratch reads", base.Len())
	}
}

func TestScratchInternsStayInOverlay(t *testing.T) {
	base := New()
	a := base.Intern(term.NewIRI("urn:a"))
	s := base.Scratch()
	fresh := s.Intern(term.NewBlank("sk1"))
	if fresh != ID(base.Len()+1) {
		t.Fatalf("overlay ID = %d, want %d", fresh, base.Len()+1)
	}
	if got := s.TermOf(fresh); got != term.NewBlank("sk1") {
		t.Fatalf("TermOf(overlay) = %v", got)
	}
	if got := s.KindOf(fresh); got != term.KindBlank {
		t.Fatalf("KindOf(overlay) = %v", got)
	}
	if base.Len() != 1 {
		t.Fatalf("base grew to %d: overlay intern leaked", base.Len())
	}
	if _, ok := base.Lookup(term.NewBlank("sk1")); ok {
		t.Fatal("overlay term visible in base")
	}
	if s.Len() != 2 {
		t.Fatalf("scratch Len = %d, want 2", s.Len())
	}
	// Re-interning dedups within the overlay; base terms keep base IDs.
	if got := s.Intern(term.NewBlank("sk1")); got != fresh {
		t.Fatalf("re-intern = %d, want %d", got, fresh)
	}
	if got := s.Intern(term.NewIRI("urn:a")); got != a {
		t.Fatalf("base term through scratch = %d, want %d", got, a)
	}
}

// TestScratchPostFreezeBaseInterns: terms interned into the base after
// the overlay froze must be invisible through the overlay — their base
// IDs live in the overlay's private range and would alias it.
func TestScratchPostFreezeBaseInterns(t *testing.T) {
	base := New()
	base.Intern(term.NewIRI("urn:a"))
	s := base.Scratch()
	late := base.Intern(term.NewIRI("urn:late")) // base ID 2, after freeze
	ov := s.Intern(term.NewBlank("b"))           // overlay ID 2
	if ov != late {
		t.Fatalf("test setup: want aliasing IDs, got overlay %d base %d", ov, late)
	}
	if got := s.TermOf(2); got != term.NewBlank("b") {
		t.Fatalf("scratch TermOf(2) = %v, want the overlay term", got)
	}
	if id, ok := s.Lookup(term.NewIRI("urn:late")); ok {
		t.Fatalf("post-freeze base term visible through scratch as %d", id)
	}
	// Interning the late term through the scratch re-interns privately.
	re := s.Intern(term.NewIRI("urn:late"))
	if re != 3 {
		t.Fatalf("late term re-interned as %d, want 3", re)
	}
	if got := s.TermOf(re); got != term.NewIRI("urn:late") {
		t.Fatalf("TermOf(%d) = %v", re, got)
	}
}

func TestScratchNesting(t *testing.T) {
	root := New()
	a := root.Intern(term.NewIRI("urn:a"))
	s1 := root.Scratch()
	b := s1.Intern(term.NewIRI("urn:b"))
	s2 := s1.Scratch()
	c := s2.Intern(term.NewIRI("urn:c"))
	if a != 1 || b != 2 || c != 3 {
		t.Fatalf("IDs = %d,%d,%d, want 1,2,3", a, b, c)
	}
	for id, want := range map[ID]term.Term{
		a: term.NewIRI("urn:a"),
		b: term.NewIRI("urn:b"),
		c: term.NewIRI("urn:c"),
	} {
		if got := s2.TermOf(id); got != want {
			t.Fatalf("s2.TermOf(%d) = %v, want %v", id, got, want)
		}
		if got, ok := s2.Lookup(want); !ok || got != id {
			t.Fatalf("s2.Lookup(%v) = %d,%v", want, got, ok)
		}
	}
	if got := s2.Intern(term.NewIRI("urn:b")); got != b {
		t.Fatalf("mid-layer term through s2 = %d, want %d", got, b)
	}
	if root.Len() != 1 || s1.Len() != 2 || s2.Len() != 3 {
		t.Fatalf("Lens = %d,%d,%d, want 1,2,3", root.Len(), s1.Len(), s2.Len())
	}
	if s2.Base() != s1 || s1.Base() != root || root.Base() != nil {
		t.Fatal("Base chain wrong")
	}
}

// TestScratchTermsKinds: the materialized views cover base + overlay in
// ID order and track later overlay interns.
func TestScratchTermsKinds(t *testing.T) {
	base := New()
	base.Intern(term.NewIRI("urn:a"))
	base.Intern(term.NewBlank("x"))
	s := base.Scratch()
	s.Intern(term.NewLiteral("lit"))
	terms := s.Terms()
	kinds := s.Kinds()
	if len(terms) != 3 || len(kinds) != 3 {
		t.Fatalf("lens = %d,%d, want 3,3", len(terms), len(kinds))
	}
	for id := ID(1); id <= 3; id++ {
		if terms[id-1] != s.TermOf(id) {
			t.Fatalf("Terms()[%d] = %v, want %v", id-1, terms[id-1], s.TermOf(id))
		}
		if kinds[id-1] != s.KindOf(id) {
			t.Fatalf("Kinds()[%d] = %v, want %v", id-1, kinds[id-1], s.KindOf(id))
		}
	}
	// The cache must refresh after further interns.
	s.Intern(term.NewVar("V"))
	if got := s.Terms(); len(got) != 4 || got[3] != term.NewVar("V") {
		t.Fatalf("Terms() after intern = %v", got)
	}
	if base.Len() != 2 {
		t.Fatalf("base grew to %d", base.Len())
	}
}

// TestScratchConcurrent hammers one overlay from several goroutines
// while the base also interns; run under -race.
func TestScratchConcurrent(t *testing.T) {
	base := New()
	for i := 0; i < 50; i++ {
		base.Intern(term.NewIRI(fmt.Sprintf("urn:base:%d", i)))
	}
	s := base.Scratch()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				shared := s.Intern(term.NewBlank(fmt.Sprintf("shared%d", i%20)))
				if got := s.TermOf(shared); got != term.NewBlank(fmt.Sprintf("shared%d", i%20)) {
					panic("overlay readback mismatch")
				}
				if id := s.Intern(term.NewIRI(fmt.Sprintf("urn:base:%d", i%50))); int(id) > 50 {
					panic("base term re-interned into overlay")
				}
				_ = s.KindOf(ID(i%50 + 1))
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 200; i++ {
			base.Intern(term.NewIRI(fmt.Sprintf("urn:late:%d", i)))
		}
	}()
	wg.Wait()
	if n := s.Len(); n != 50+20 {
		t.Fatalf("scratch Len = %d, want 70", n)
	}
}

// TestInternAllMatchesIntern: a batch interns each new term once, in
// first-occurrence order and at the IDs one-by-one interning would
// give, skips terms the base already resolves (a post-freeze base term
// is re-interned privately, as Intern does), and publishes one view.
func TestInternAllMatchesIntern(t *testing.T) {
	base := New()
	a := term.NewIRI("urn:a")
	base.Intern(a)
	s, want := base.Scratch(), base.Scratch()
	late := term.NewIRI("urn:late")
	base.Intern(late)
	x, y := term.NewBlank("x"), term.NewBlank("y")
	batch := []term.Term{x, a, y, x, late, y}
	for _, tr := range batch {
		want.Intern(tr)
	}
	before := s.v.Load()
	s.InternAll(batch)
	if s.Len() != want.Len() || s.Len() != base.Len()-1+3 {
		t.Fatalf("InternAll: Len %d, one-by-one Len %d", s.Len(), want.Len())
	}
	for _, tr := range batch {
		got, _ := s.Lookup(tr)
		if w, _ := want.Lookup(tr); got != w || s.TermOf(got) != tr {
			t.Fatalf("%v: InternAll ID %d, Intern ID %d", tr, got, w)
		}
	}
	if id, _ := s.Lookup(a); id != 1 {
		t.Fatalf("base term re-interned as %d", id)
	}
	if base.Len() != 2 {
		t.Fatalf("InternAll grew the base to %d terms", base.Len())
	}
	if s.v.Load() == before {
		t.Fatal("no view published")
	}
	s.InternAll(batch) // all known: nothing changes
	if s.Len() != want.Len() {
		t.Fatalf("repeated InternAll grew the overlay to %d", s.Len())
	}
}
