// White-box tests for incremental prepared-cache maintenance: after
// any interleaving of inserts and queries, the delta-maintained
// matching universe must be bit-identical (triple-set equal and
// Fingerprint-equal) to a from-scratch preparation of the same
// snapshot, answers must not depend on whether maintenance ran
// incrementally, and the Stats counters must tell the true story of
// which path served each query.
package semweb

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"semwebdb/internal/core"
	"semwebdb/internal/query"
)

// deltaVocab builds random ground triples over a small schema-ful
// vocabulary (subclass/subproperty edges, domain/range constraints,
// typings, plain data edges) so inserts routinely trigger new RDFS
// derivations rather than landing inert.
type deltaVocab struct{ rng *rand.Rand }

func (v deltaVocab) cls(i int) Term  { return IRI(fmt.Sprintf("urn:d:c%d", i%12)) }
func (v deltaVocab) prop(i int) Term { return IRI(fmt.Sprintf("urn:d:p%d", i%8)) }
func (v deltaVocab) node(i int) Term { return IRI(fmt.Sprintf("urn:d:n%d", i%40)) }

func (v deltaVocab) triple() Triple {
	r := v.rng
	switch r.Intn(6) {
	case 0:
		return T(v.cls(r.Intn(12)), SubClassOf, v.cls(r.Intn(12)))
	case 1:
		return T(v.prop(r.Intn(8)), SubPropertyOf, v.prop(r.Intn(8)))
	case 2:
		return T(v.prop(r.Intn(8)), Domain, v.cls(r.Intn(12)))
	case 3:
		return T(v.prop(r.Intn(8)), Range, v.cls(r.Intn(12)))
	case 4:
		return T(v.node(r.Intn(40)), Type, v.cls(r.Intn(12)))
	default:
		return T(v.node(r.Intn(40)), v.prop(r.Intn(8)), v.node(r.Intn(40)))
	}
}

func (v deltaVocab) triples(n int) []Triple {
	ts := make([]Triple, n)
	for i := range ts {
		ts[i] = v.triple()
	}
	return ts
}

// typeQuery matches every (X, rdf:type, Y) in the universe — a body
// that touches most derived triples.
func typeQuery() *Query {
	X, Y := Var("X"), Var("Y")
	return NewQuery().
		Head(T(X, IRI("urn:d:isa"), Y)).
		Body(T(X, Type, Y))
}

// evalBothFlags runs one premise-free query against nf(D) and one
// against cl(D), forcing both prepared universes to exist (and any
// pending inserts to be folded in).
func evalBothFlags(t *testing.T, db *DB) (nf, cl *Answer) {
	t.Helper()
	nf, err := db.Eval(context.Background(), typeQuery())
	if err != nil {
		t.Fatal(err)
	}
	cl, err = db.Eval(context.Background(), typeQuery().WithoutNormalForm())
	if err != nil {
		t.Fatal(err)
	}
	return nf, cl
}

// TestDeltaPreparedMatchesFromScratch is the acceptance property: at
// every point of a random insert/query interleaving, the prepared
// universe under either flag — one state on a ground database,
// maintained only by semi-naive delta passes after the first
// preparation — is triple-set equal AND Fingerprint-equal to a
// from-scratch query.Prepare over the snapshot it covers, which is the
// current one.
func TestDeltaPreparedMatchesFromScratch(t *testing.T) {
	// Preparation runs on one worker; the subtest name says so.
	t.Run("workers=1", func(t *testing.T) {
		rng := rand.New(rand.NewSource(8))
		v := deltaVocab{rng}
		db, err := Open()
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.Add(v.triples(250)...); err != nil {
			t.Fatal(err)
		}
		evalBothFlags(t, db)

		ctx := context.Background()
		for round := 0; round < 6; round++ {
			// A few separate Adds accumulate in the pending queue and are
			// folded by one maintenance pass at next Eval.
			for b := 0; b < 1+rng.Intn(3); b++ {
				if err := db.Add(v.triples(1 + rng.Intn(15))...); err != nil {
					t.Fatal(err)
				}
			}
			evalBothFlags(t, db)

			for _, skipNF := range []bool{false, true} {
				st, seconds, err := db.universe(ctx, !skipNF)
				if err != nil {
					t.Fatal(err)
				}
				if seconds != querySecondsCached || st.base != db.snapshot() {
					t.Fatalf("round %d skipNF=%v: no cached state for the current snapshot after eval", round, skipNF)
				}
				want, err := query.Prepare(ctx, scratchView(st.base), skipNF)
				if err != nil {
					t.Fatal(err)
				}
				if !st.data.Equal(want) {
					t.Fatalf("round %d skipNF=%v: delta-maintained universe (%d) != from-scratch (%d)",
						round, skipNF, st.data.Len(), want.Len())
				}
				fpGot, err := core.FingerprintCtx(ctx, st.data)
				if err != nil {
					t.Fatal(err)
				}
				fpWant, err := core.FingerprintCtx(ctx, want)
				if err != nil {
					t.Fatal(err)
				}
				if fpGot != fpWant {
					t.Fatalf("round %d skipNF=%v: fingerprint %s != from-scratch %s",
						round, skipNF, fpGot, fpWant)
				}
			}
		}
		st := db.Stats()
		if st.PreparedFull != 1 {
			t.Fatalf("PreparedFull = %d, want exactly 1 (one state for both flags); deltas did not stick", st.PreparedFull)
		}
		if st.PreparedDelta < 6 {
			t.Fatalf("PreparedDelta = %d, want ≥ 6", st.PreparedDelta)
		}
	})
}

// TestDeltaAnswersMatchFullReprepare feeds an interleaved insert/query
// script to an incrementally maintained database and, at every step,
// requires answers identical to those of a fresh database opened over
// the same triples — a fresh database always prepares in full — then
// checks the incremental one really took the delta path.
func TestDeltaAnswersMatchFullReprepare(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	v := deltaVocab{rng}
	inc, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer inc.Close()

	step := func(ts []Triple) {
		t.Helper()
		if err := inc.Add(ts...); err != nil {
			t.Fatal(err)
		}
		full, err := Open(WithGraph(inc.Graph()))
		if err != nil {
			t.Fatal(err)
		}
		defer full.Close()
		aNF, aCl := evalBothFlags(t, inc)
		bNF, bCl := evalBothFlags(t, full)
		if st := full.Stats(); st.PreparedFull != 1 || st.PreparedDelta != 0 {
			t.Fatalf("fresh DB: full=%d delta=%d, want 1/0", st.PreparedFull, st.PreparedDelta)
		}
		if aNF.NTriples() != bNF.NTriples() {
			t.Fatalf("nf answers diverge:\n%s\nvs\n%s", aNF.NTriples(), bNF.NTriples())
		}
		if aCl.NTriples() != bCl.NTriples() {
			t.Fatalf("cl answers diverge:\n%s\nvs\n%s", aCl.NTriples(), bCl.NTriples())
		}
	}
	step(v.triples(200))
	for i := 0; i < 8; i++ {
		step(v.triples(1 + rng.Intn(25)))
	}

	if st := inc.Stats(); st.PreparedDelta == 0 || st.PreparedFull != 1 {
		t.Fatalf("incremental DB: full=%d delta=%d, want 1 and >0", st.PreparedFull, st.PreparedDelta)
	}
}

// TestDeltaStatsCounters pins the counter lifecycle: one full prepare
// for both flags on a ground database, pending Adds coalesce into a
// single delta pass at the next query, and PreparedDeltaTriples totals
// the batch sizes folded in.
func TestDeltaStatsCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	v := deltaVocab{rng}
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Add(v.triples(100)...); err != nil {
		t.Fatal(err)
	}
	evalBothFlags(t, db)
	st := db.Stats()
	if st.PreparedFull != 1 || st.PreparedDelta != 0 {
		t.Fatalf("after first evals: full=%d delta=%d, want 1/0", st.PreparedFull, st.PreparedDelta)
	}

	// Three separate Adds (7 distinct fresh triples total) queue up…
	if err := db.Add(T(v.node(100), Type, v.cls(100))); err != nil { // 1 triple
		t.Fatal(err)
	}
	if err := db.Add(
		T(v.node(101), Type, v.cls(101)),
		T(v.node(102), Type, v.cls(102)),
		T(v.node(103), Type, v.cls(103)),
	); err != nil {
		t.Fatal(err)
	}
	if err := db.Add(
		T(v.cls(104), SubClassOf, v.cls(105)),
		T(v.cls(105), SubClassOf, v.cls(106)),
		T(v.node(104), Type, v.cls(104)),
	); err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	pending := len(db.pending)
	db.mu.RUnlock()
	if pending != 7 {
		t.Fatalf("pending queue holds %d triples, want 7", pending)
	}

	// …and one query folds them in with a single maintenance pass.
	evalBothFlags(t, db)
	st = db.Stats()
	if st.PreparedFull != 1 {
		t.Fatalf("PreparedFull = %d after delta, want still 1", st.PreparedFull)
	}
	if st.PreparedDelta != 1 {
		t.Fatalf("PreparedDelta = %d, want 1 (batches coalesce)", st.PreparedDelta)
	}
	if st.PreparedDeltaTriples != 7 {
		t.Fatalf("PreparedDeltaTriples = %d, want 7", st.PreparedDeltaTriples)
	}
	db.mu.RLock()
	pending = len(db.pending)
	db.mu.RUnlock()
	if pending != 0 {
		t.Fatalf("pending queue holds %d triples after maintenance, want 0", pending)
	}

	// The derivation through the fresh subclass chain is served.
	if !db.Infers(T(v.node(104), Type, v.cls(106))) {
		t.Fatal("derived typing through freshly inserted subclass chain missing")
	}
}

// TestDeltaFallbacks drives each ineligibility path and checks the
// matching counter ticks, the cache is dropped (not left stale), and
// answers stay correct via a fresh full preparation.
func TestDeltaFallbacks(t *testing.T) {
	ground := []Triple{
		T(IRI("urn:f:c1"), SubClassOf, IRI("urn:f:c2")),
		T(IRI("urn:f:x"), Type, IRI("urn:f:c1")),
	}

	t.Run("non-ground batch", func(t *testing.T) {
		db, err := Open()
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.Add(ground...); err != nil {
			t.Fatal(err)
		}
		evalBothFlags(t, db)
		if err := db.Add(T(Blank("b"), Type, IRI("urn:f:c1"))); err != nil {
			t.Fatal(err)
		}
		if st := db.Stats(); st.PreparedFallbackNonGroundBatch != 1 {
			t.Fatalf("fallback counter = %d, want 1", st.PreparedFallbackNonGroundBatch)
		}
		db.mu.RLock()
		dropped := db.cl == nil && db.nf == nil && db.pending == nil
		db.mu.RUnlock()
		if !dropped {
			t.Fatal("prepared cache not dropped on non-ground insert")
		}
		evalBothFlags(t, db)
		if st := db.Stats(); st.PreparedFull != 3 || st.PreparedDelta != 0 {
			t.Fatalf("full=%d delta=%d after fallback, want 3/0 (one ground state, then one per flag)", st.PreparedFull, st.PreparedDelta)
		}
		if !db.Infers(T(Blank("b"), Type, IRI("urn:f:c2"))) {
			t.Fatal("post-fallback snapshot lost a derivation")
		}
	})

	t.Run("non-ground base", func(t *testing.T) {
		db, err := Open()
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.Add(append([]Triple{T(Blank("b"), Type, IRI("urn:f:c1"))}, ground...)...); err != nil {
			t.Fatal(err)
		}
		evalBothFlags(t, db)
		if err := db.Add(T(IRI("urn:f:y"), Type, IRI("urn:f:c1"))); err != nil {
			t.Fatal(err)
		}
		if st := db.Stats(); st.PreparedFallbackNonGroundBase != 1 {
			t.Fatalf("fallback counter = %d, want 1", st.PreparedFallbackNonGroundBase)
		}
		evalBothFlags(t, db)
		if st := db.Stats(); st.PreparedDelta != 0 {
			t.Fatalf("delta = %d on a non-ground base, want 0", st.PreparedDelta)
		}
	})

	t.Run("compact", func(t *testing.T) {
		db, err := Open()
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		if err := db.Add(ground...); err != nil {
			t.Fatal(err)
		}
		evalBothFlags(t, db)
		if err := db.Compact(); err != nil {
			t.Fatal(err)
		}
		if st := db.Stats(); st.PreparedFallbackCompact != 1 {
			t.Fatalf("fallback counter = %d, want 1", st.PreparedFallbackCompact)
		}
		evalBothFlags(t, db)
		if st := db.Stats(); st.PreparedFull != 2 {
			t.Fatalf("full=%d after compact, want 2 (cache rebuilt)", st.PreparedFull)
		}
	})
}

// TestDeltaConcurrentAddEvalStream hammers one database with
// concurrent ground inserts, premise-free Evals and Streams and paper
// operations (Infers, Entails, Closure, Equivalent) — meant to run
// under the race detector (`make test-race`, `make test-stress`).
// Every operation must succeed, every read after the warm-up must be
// served by the cache or a delta pass (no full re-saturation, stale or
// not), and the final state must equal a fresh preparation.
func TestDeltaConcurrentAddEvalStream(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	seed := deltaVocab{rand.New(rand.NewSource(31))}
	if err := db.Add(seed.triples(150)...); err != nil {
		t.Fatal(err)
	}
	evalBothFlags(t, db)

	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v := deltaVocab{rand.New(rand.NewSource(int64(100 + w)))}
			for i := 0; i < 20; i++ {
				if err := db.Add(v.triples(1 + v.rng.Intn(5))...); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				q := typeQuery()
				if r%2 == 1 {
					q = q.WithoutNormalForm()
				}
				if _, err := db.Eval(ctx, q); err != nil {
					errs <- err
					return
				}
			}
		}(r)
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				rows, err := db.Stream(ctx, typeQuery())
				if err != nil {
					errs <- err
					return
				}
				for rows.Next() {
				}
				if err := rows.Err(); err != nil {
					errs <- err
					return
				}
				rows.Close()
			}
		}()
	}
	wg.Add(1)
	go func() { // paper operations read and extend the same cache
		defer wg.Done()
		h := NewGraph(T(Blank("x"), Type, seed.cls(1)))
		for i := 0; i < 10; i++ {
			db.Infers(T(seed.node(i), Type, seed.cls(i)))
			if _, err := db.Entails(ctx, h); err != nil {
				errs <- err
				return
			}
			if _, err := db.Equivalent(ctx, h); err != nil {
				errs <- err
				return
			}
			if _, err := db.Closure(ctx); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if st := db.Stats(); st.PreparedFull != 1 || st.PreparedFallbackStale != 0 {
		t.Fatalf("full=%d stale=%d under concurrent writes, want 1 and 0", st.PreparedFull, st.PreparedFallbackStale)
	}
	for _, skipNF := range []bool{false, true} {
		st, _, err := db.universe(ctx, !skipNF)
		if err != nil {
			t.Fatal(err)
		}
		if st.base != db.snapshot() {
			t.Fatalf("skipNF=%v: universe covers an older snapshot after the dust settled", skipNF)
		}
		want, err := query.Prepare(ctx, scratchView(st.base), skipNF)
		if err != nil {
			t.Fatal(err)
		}
		if !st.data.Equal(want) {
			t.Fatalf("skipNF=%v: concurrent maintenance diverged from from-scratch preparation", skipNF)
		}
	}
}
