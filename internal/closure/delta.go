// This file implements incremental (delta) maintenance of the RDFS
// closure: given an already-saturated base and a batch of inserted
// triples, compute RDFS-cl(base ∪ batch) by semi-naive rounds in which
// at least one premise of every rule firing comes from the delta —
// never by re-saturating the base. The entry point is the reusable
// Maintainer.
//
// Correctness rests on the base being a fixpoint of rules (2)–(13):
// rule instantiations whose premises all lie in the base conclude only
// triples the base already has, so seeding the base into the engine's
// indexes and dedup set *without queueing it* loses nothing — every
// instantiation with a delta premise still fires when that premise is
// processed against the (always up-to-date) indexes, which is the same
// exactly-once coverage argument as full saturation. The rule (9)
// vocabulary loops (p, sp, p) for p ∈ rdfsV are in every saturated
// base already, so they need no re-bootstrapping.
//
// RDFS-cl is cl (Definition 3.5, Lemma 3.4), so maintaining one
// maintains the other, with or without blank nodes: the rules treat
// them as constants. Callers serving nf(D) = core(cl(D)) take the core
// of the maintained closure; only on a ground one is it the identity.

package closure

import (
	"context"
	"fmt"
	"time"

	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
)

// Maintainer incrementally maintains the RDFS closure of a growing
// triple set. It is built once from a saturated base — one O(|base|)
// indexing pass, with no rule firings — and then folds successive
// insertion batches in via Apply, each costing work proportional to
// the batch and its consequences rather than to the whole closure.
//
// The maintainer owns private engine state (its own dedup graph and
// rule indexes over the base's dictionary); it never mutates the base
// graph it was seeded from. It is not safe for concurrent use —
// callers serialize Apply — and after an Apply aborts mid-batch
// (context cancellation) the maintainer is poisoned: its internal
// state holds a half-applied batch, so every later Apply fails and the
// caller must fall back to a full saturation.
type Maintainer struct {
	e   *engine
	err error // poisoned: an Apply aborted with this error
}

// NewMaintainer builds a maintainer over base, which must be
// RDFS-closed (a fixpoint of rules (2)–(13), e.g. any RDFSCl
// result). Feeding a non-closed base yields the closure
// of nothing in particular; it is the caller's contract, not checked.
func NewMaintainer(base *graph.Graph) *Maintainer {
	e := newEngine(base.Dict())
	base.EachID(func(t dict.Triple3) bool {
		e.seed(t)
		return true
	})
	e.journaling = true
	return &Maintainer{e: e}
}

// Len returns the current closure size |cl| the maintainer tracks.
func (m *Maintainer) Len() int { return m.e.out.Len() }

// Apply folds a batch of inserted triples (encoded against the base's
// dictionary) into the maintained closure and returns the triples that
// are genuinely new — the batch members not already present plus
// everything the rules derive from them. The returned slice is owned
// by the caller and is disjoint from the pre-Apply closure, which
// makes it directly usable with graph.ExtendedByIDs.
func (m *Maintainer) Apply(ctx context.Context, batch []dict.Triple3) ([]dict.Triple3, error) {
	if m.err != nil {
		return nil, m.err
	}
	t0 := time.Now()
	e := m.e
	e.journal = e.journal[:0]
	for _, t := range batch {
		e.add(t)
	}
	if err := e.run(ctx); err != nil {
		m.err = fmt.Errorf("closure: delta maintenance aborted, maintainer unusable: %w", err)
		return nil, err
	}
	satDelta.Inc()
	satSecondsDelta.ObserveSince(t0)
	out := make([]dict.Triple3, len(e.journal))
	copy(out, e.journal)
	return out, nil
}
