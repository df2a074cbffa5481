// Package graph implements RDF graphs as defined in Section 2.1 of
// "Foundations of Semantic Web databases": sets of RDF triples over
// U ∪ B, together with the operations the paper builds its theory on —
// maps (blank-node homomorphisms), instances, union, merge, and the
// skolemization operators (·)* and (·)⋆ of Section 3.1.
//
// Representation. A Graph is dictionary-encoded: every term is interned
// to a dense dict.ID and the triple set is a set of dict.Triple3
// values, with the three sorted permutations SPO/POS/OSP materialized
// lazily for pattern range scans (MatchID/CountID). Strings are only
// touched at the term-level API boundary — parsers, serializers and the
// public facade — while the engine layers (match, hom, closure, core,
// query) operate on IDs end-to-end. Graphs derived from one another
// (clones, unions, closures, instances under a map) share one
// dictionary, so their set operations compare integers, never strings.
package graph

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"semwebdb/internal/dict"
	"semwebdb/internal/term"
)

// Triple is an RDF triple (s, p, o) ∈ (U ∪ B) × U × (U ∪ B ∪ L).
// It is a comparable value type.
type Triple struct {
	S, P, O term.Term
}

// T is shorthand for constructing a triple.
func T(s, p, o term.Term) Triple { return Triple{S: s, P: p, O: o} }

// WellFormed reports whether the triple respects the RDF positional
// restrictions: subject in U ∪ B, predicate in U, object in U ∪ B ∪ L.
// Triples containing variables are not well formed data triples.
func (t Triple) WellFormed() bool {
	return t.S.CanSubject() && t.P.CanPredicate() && t.O.CanObject()
}

// IsGround reports whether the triple mentions no blank nodes.
func (t Triple) IsGround() bool {
	return !t.S.IsBlank() && !t.P.IsBlank() && !t.O.IsBlank()
}

// HasVar reports whether any position holds a query variable.
func (t Triple) HasVar() bool {
	return t.S.IsVar() || t.P.IsVar() || t.O.IsVar()
}

// Compare totally orders triples lexicographically by subject, predicate,
// object (using term.Compare).
func (t Triple) Compare(u Triple) int {
	if c := t.S.Compare(u.S); c != 0 {
		return c
	}
	if c := t.P.Compare(u.P); c != 0 {
		return c
	}
	return t.O.Compare(u.O)
}

// String renders the triple in N-Triples style (without the trailing dot).
func (t Triple) String() string {
	return t.S.String() + " " + t.P.String() + " " + t.O.String()
}

// Terms returns the three positions in order.
func (t Triple) Terms() [3]term.Term { return [3]term.Term{t.S, t.P, t.O} }

// WellFormedID reports whether the ID triple respects the RDF positional
// restrictions, resolving kinds through d. Kinds are resolved one ID at
// a time so the check is cheap on scratch-overlay dictionaries too (no
// flattened Kinds slice is materialized).
func WellFormedID(d *dict.Dict, t dict.Triple3) bool {
	s, p, o := d.KindOf(t[0]), d.KindOf(t[1]), d.KindOf(t[2])
	return (s == term.KindIRI || s == term.KindBlank) &&
		p == term.KindIRI &&
		(o == term.KindIRI || o == term.KindBlank || o == term.KindLiteral)
}

// idxState is one lazily built sorted permutation; immutable once built.
type idxState struct {
	version uint64
	keys    []dict.Triple3
}

// Graph is an RDF graph: a finite set of RDF triples. The zero value is
// not ready to use; construct graphs with New or NewWithDict.
//
// A Graph is not safe for concurrent mutation, but an immutable graph
// (no Add/Remove after publication) is safe for concurrent readers,
// including the lazy index builds triggered by MatchID/CountID. Each
// permutation has its own build lock, so concurrent first scans of
// different orders build their indexes in parallel.
type Graph struct {
	d   *dict.Dict
	set map[dict.Triple3]struct{}

	version uint64        // bumped on every mutation
	imu     [3]sync.Mutex // per-order build locks
	idx     [3]atomic.Pointer[idxState]
}

// New returns an empty graph with a private dictionary, optionally
// populated with the given triples.
func New(ts ...Triple) *Graph {
	return NewWithDict(dict.New(), ts...)
}

// NewWithDict returns an empty graph interning into the given shared
// dictionary, optionally populated with the given triples.
func NewWithDict(d *dict.Dict, ts ...Triple) *Graph {
	g := &Graph{d: d, set: make(map[dict.Triple3]struct{}, len(ts))}
	for _, t := range ts {
		g.Add(t)
	}
	return g
}

// NewWithDictCap returns an empty graph over a shared dictionary with
// room preallocated for n triples — the bulk-ingest constructor used
// by the snapshot loader.
func NewWithDictCap(d *dict.Dict, n int) *Graph {
	return &Graph{d: d, set: make(map[dict.Triple3]struct{}, n)}
}

// FromTriples builds a graph from a slice of triples.
func FromTriples(ts []Triple) *Graph { return New(ts...) }

// Dict returns the dictionary the graph interns into. Graphs derived
// from this one (clones, unions, instances, closures) share it.
func (g *Graph) Dict() *dict.Dict { return g.d }

// Intern interns a term into the graph's dictionary and returns its ID.
func (g *Graph) Intern(t term.Term) dict.ID { return g.d.Intern(t) }

// InternTriple interns all three positions of a triple.
func (g *Graph) InternTriple(t Triple) dict.Triple3 {
	return dict.Triple3{g.d.Intern(t.S), g.d.Intern(t.P), g.d.Intern(t.O)}
}

// lookupTriple encodes a triple without interning; ok is false when some
// position has never been interned (the triple is then certainly absent).
func (g *Graph) lookupTriple(t Triple) (dict.Triple3, bool) {
	s, ok := g.d.Lookup(t.S)
	if !ok {
		return dict.Triple3{}, false
	}
	p, ok := g.d.Lookup(t.P)
	if !ok {
		return dict.Triple3{}, false
	}
	o, ok := g.d.Lookup(t.O)
	if !ok {
		return dict.Triple3{}, false
	}
	return dict.Triple3{s, p, o}, true
}

// decode resolves an ID triple back to terms.
func (g *Graph) decode(t dict.Triple3) Triple {
	return Triple{S: g.d.TermOf(t[0]), P: g.d.TermOf(t[1]), O: g.d.TermOf(t[2])}
}

// A graph normally keeps its triple set as a hash map. ExtendedByIDs
// returns a *frozen* graph instead: set is nil and the sorted SPO
// permutation is the authoritative triple set, so extending a large
// closure by a small delta never pays an O(|G|) map copy. The
// read-only operations concurrent evaluation touches — HasID, Len,
// EachID, MatchID, CountID, Index — understand both representations
// without mutating anything; every other operation materializes the
// map first (O(|G|) once, idempotent), which is safe because those
// paths already require exclusive ownership.

// frozenKeys returns the authoritative SPO run of a frozen graph.
func (g *Graph) frozenKeys() []dict.Triple3 {
	st := g.idx[dict.SPO].Load()
	if st == nil {
		return nil
	}
	return st.keys
}

// materialize builds the hash-map representation of a frozen graph in
// place. It is not safe under concurrent access to g — callers are
// mutators (which require exclusive ownership anyway) and whole-graph
// transforms; the concurrent-read paths never materialize.
func (g *Graph) materialize() {
	if g.set != nil {
		return
	}
	keys := g.frozenKeys()
	set := make(map[dict.Triple3]struct{}, len(keys))
	for _, t := range keys {
		set[t] = struct{}{}
	}
	g.set = set
}

// hasEnc reports membership of an encoded triple in either
// representation: a map probe, or a binary search on the SPO run.
func (g *Graph) hasEnc(t dict.Triple3) bool {
	if g.set != nil {
		_, ok := g.set[t]
		return ok
	}
	lo, hi := dict.SearchRange(g.frozenKeys(), t, 3)
	return lo < hi
}

// insert adds a raw encoded triple, bypassing well-formedness checks
// (Map.Apply relies on this: instances are kept exactly as produced).
func (g *Graph) insert(t dict.Triple3) bool {
	g.materialize()
	if _, ok := g.set[t]; ok {
		return false
	}
	g.set[t] = struct{}{}
	g.version++
	return true
}

// Add inserts a triple. It returns true if the triple was not yet present.
// Ill-formed triples (wrong positional kinds, variables) are rejected with
// a false return and not inserted.
func (g *Graph) Add(t Triple) bool {
	if !t.WellFormed() {
		return false
	}
	return g.insert(g.InternTriple(t))
}

// AddID inserts an already-encoded triple, validating the positional
// kinds through the dictionary. It returns true if the triple is
// well-formed and was not yet present. The presence probe runs before
// the kind check, keeping re-derivation-heavy callers (saturation) on
// the cheap path.
func (g *Graph) AddID(t dict.Triple3) bool {
	if g.hasEnc(t) {
		return false
	}
	if !WellFormedID(g.d, t) {
		return false
	}
	g.materialize()
	g.set[t] = struct{}{}
	g.version++
	return true
}

// MustAdd inserts a triple and panics if it is ill-formed. It is intended
// for tests and literal program construction.
func (g *Graph) MustAdd(t Triple) {
	if !t.WellFormed() {
		panic(fmt.Sprintf("graph: ill-formed triple %s", t))
	}
	g.insert(g.InternTriple(t))
}

// Remove deletes a triple, reporting whether it was present.
func (g *Graph) Remove(t Triple) bool {
	enc, ok := g.lookupTriple(t)
	if !ok {
		return false
	}
	if !g.hasEnc(enc) {
		return false
	}
	g.materialize()
	delete(g.set, enc)
	g.version++
	return true
}

// Has reports membership of a triple.
func (g *Graph) Has(t Triple) bool {
	enc, ok := g.lookupTriple(t)
	if !ok {
		return false
	}
	return g.hasEnc(enc)
}

// HasID reports membership of an encoded triple.
func (g *Graph) HasID(t dict.Triple3) bool {
	return g.hasEnc(t)
}

// Len returns the number of triples, written |G| in the paper.
func (g *Graph) Len() int {
	if g.set == nil {
		return len(g.frozenKeys())
	}
	return len(g.set)
}

// IsEmpty reports whether the graph has no triples.
func (g *Graph) IsEmpty() bool { return g.Len() == 0 }

// Triples returns the triples in canonical (sorted) order. The sort
// runs over the 12-byte encoded triples — equal IDs short-circuit the
// string comparison — and decoding happens once, in final order.
func (g *Graph) Triples() []Triple {
	d := g.d
	encs := make([]dict.Triple3, 0, g.Len())
	g.EachID(func(enc dict.Triple3) bool {
		encs = append(encs, enc)
		return true
	})
	sort.Slice(encs, func(i, j int) bool {
		a, b := encs[i], encs[j]
		for k := 0; k < 3; k++ {
			if a[k] == b[k] {
				continue
			}
			if c := d.TermOf(a[k]).Compare(d.TermOf(b[k])); c != 0 {
				return c < 0
			}
		}
		return false
	})
	ts := make([]Triple, len(encs))
	for i, enc := range encs {
		ts[i] = Triple{S: d.TermOf(enc[0]), P: d.TermOf(enc[1]), O: d.TermOf(enc[2])}
	}
	return ts
}

// Each calls fn for every triple in unspecified order; if fn returns
// false, iteration stops early.
func (g *Graph) Each(fn func(Triple) bool) {
	d := g.d
	g.EachID(func(enc dict.Triple3) bool {
		return fn(Triple{S: d.TermOf(enc[0]), P: d.TermOf(enc[1]), O: d.TermOf(enc[2])})
	})
}

// EachID calls fn for every encoded triple in unspecified order; if fn
// returns false, iteration stops early.
func (g *Graph) EachID(fn func(dict.Triple3) bool) {
	if g.set == nil {
		for _, enc := range g.frozenKeys() {
			if !fn(enc) {
				return
			}
		}
		return
	}
	for enc := range g.set {
		if !fn(enc) {
			return
		}
	}
}

// index returns the sorted permutation for the given order, building it
// on first use and after mutations. Built indexes are immutable and
// published atomically; the per-order lock only serializes builders of
// the same order, so readers warming different permutations at the same
// time proceed in parallel.
func (g *Graph) index(o dict.Order) []dict.Triple3 {
	if st := g.idx[o].Load(); st != nil && st.version == g.version {
		return st.keys
	}
	g.imu[o].Lock()
	defer g.imu[o].Unlock()
	if st := g.idx[o].Load(); st != nil && st.version == g.version {
		return st.keys
	}
	keys := make([]dict.Triple3, 0, g.Len())
	g.EachID(func(enc dict.Triple3) bool {
		keys = append(keys, dict.Permute(enc, o))
		return true
	})
	dict.SortIndex(keys)
	g.idx[o].Store(&idxState{version: g.version, keys: keys})
	return keys
}

// Index returns the sorted permutation of the current triple set for
// the given order, building it on first use. The returned slice is the
// graph's cached index: it is immutable and must not be modified. A
// snapshot serializer uses this to persist the permutations exactly as
// the scans consume them.
func (g *Graph) Index(o dict.Order) []dict.Triple3 { return g.index(o) }

// InstallIndex installs keys as the sorted permutation for the given
// order, replacing any cached index. The caller asserts that keys is
// precisely Permute(set, o) in sorted order for the graph's current
// triple set — a snapshot loader uses this so that reopened databases
// scan without re-sorting. Installing an index that violates the
// contract corrupts MatchID/CountID results.
func (g *Graph) InstallIndex(o dict.Order, keys []dict.Triple3) {
	g.idx[o].Store(&idxState{version: g.version, keys: keys})
}

// NewFromIndexes constructs a graph over d directly from prebuilt
// sorted permutations: spo, pos and osp must be the SPO/POS/OSP
// permutations (in the sense of dict.Permute) of one and the same
// well-formed triple set, each in sorted order. Since Permute(t, SPO)
// is the identity, spo doubles as the triple set itself. The caller
// hands over ownership of all three slices; violating the contract
// corrupts MatchID/CountID results, exactly as with InstallIndex.
func NewFromIndexes(d *dict.Dict, spo, pos, osp []dict.Triple3) *Graph {
	g := &Graph{d: d, set: make(map[dict.Triple3]struct{}, len(spo))}
	for _, enc := range spo {
		g.set[enc] = struct{}{}
	}
	g.InstallIndex(dict.SPO, spo)
	g.InstallIndex(dict.POS, pos)
	g.InstallIndex(dict.OSP, osp)
	return g
}

// MatchID streams every stored triple matching the pattern (Wildcard =
// any position) to fn; iteration stops early when fn returns false. The
// scan uses the permutation whose key prefix covers the bound positions,
// so it is a binary-search range scan with no post-filtering.
func (g *Graph) MatchID(sp, pp, op dict.ID, fn func(dict.Triple3) bool) {
	if sp != dict.Wildcard && pp != dict.Wildcard && op != dict.Wildcard {
		enc := dict.Triple3{sp, pp, op}
		if g.HasID(enc) {
			fn(enc)
		}
		return
	}
	o, prefix := dict.ChooseOrder(sp != dict.Wildcard, pp != dict.Wildcard, op != dict.Wildcard)
	idx := g.index(o)
	key := dict.Permute(dict.Triple3{sp, pp, op}, o)
	lo, hi := dict.SearchRange(idx, key, prefix)
	for i := lo; i < hi; i++ {
		if !fn(dict.Unpermute(idx[i], o)) {
			return
		}
	}
}

// CountID returns the number of triples matching the pattern. With all
// three permutations maintained this is exact and costs two binary
// searches.
func (g *Graph) CountID(sp, pp, op dict.ID) int {
	if sp != dict.Wildcard && pp != dict.Wildcard && op != dict.Wildcard {
		if g.HasID(dict.Triple3{sp, pp, op}) {
			return 1
		}
		return 0
	}
	o, prefix := dict.ChooseOrder(sp != dict.Wildcard, pp != dict.Wildcard, op != dict.Wildcard)
	if prefix == 0 {
		return g.Len()
	}
	idx := g.index(o)
	key := dict.Permute(dict.Triple3{sp, pp, op}, o)
	lo, hi := dict.SearchRange(idx, key, prefix)
	return hi - lo
}

// Clone returns an independent copy of the graph sharing its dictionary.
// Already-built permutation indexes are carried over (they are immutable)
// and invalidated on the clone's first mutation.
func (g *Graph) Clone() *Graph {
	h := &Graph{d: g.d, set: make(map[dict.Triple3]struct{}, g.Len())}
	g.EachID(func(enc dict.Triple3) bool {
		h.set[enc] = struct{}{}
		return true
	})
	h.version = g.version
	for o := range g.idx {
		h.idx[o].Store(g.idx[o].Load())
	}
	return h
}

// ExtendedByIDs returns a new graph holding g's triples plus added,
// sharing g's dictionary; g itself is unchanged, so published
// snapshots stay immutable under concurrent readers. The added triples
// must be well-formed encoded triples (the closure delta engines
// return exactly such runs); ones already present in g are skipped.
//
// The result is a *frozen* graph (see materialize): its sorted SPO
// permutation is the authoritative triple set and membership is a
// binary search, so the cost is O(|g| + |added|) slice merges per
// order with a handful of allocations — no O(|g|) hash-map copy.
// Other permutations built and current on g are merged the same way;
// ones not built stay lazy.
func (g *Graph) ExtendedByIDs(added []dict.Triple3) *Graph {
	fresh := make([]dict.Triple3, 0, len(added))
	seen := make(map[dict.Triple3]struct{}, len(added))
	for _, t := range added {
		if _, dup := seen[t]; dup {
			continue
		}
		seen[t] = struct{}{}
		if g.hasEnc(t) {
			continue
		}
		fresh = append(fresh, t)
	}
	h := &Graph{d: g.d}
	for o := range g.idx {
		ord := dict.Order(o)
		var base []dict.Triple3
		if ord == dict.SPO {
			// The SPO run is the frozen representation's triple set, so
			// it is always merged — building it once on a map-backed
			// base amortizes across every later extension.
			base = g.index(dict.SPO)
		} else {
			st := g.idx[o].Load()
			if st == nil || st.version != g.version {
				continue // stays lazy on h, derived from the SPO run on demand
			}
			base = st.keys
		}
		run := make([]dict.Triple3, len(fresh))
		for i, t := range fresh {
			run[i] = dict.Permute(t, ord)
		}
		dict.SortIndex(run)
		h.InstallIndex(ord, dict.MergeSorted(base, run))
	}
	return h
}

// WithDict returns a read-only view of g that resolves and interns
// through nd instead of g's own dictionary. nd must resolve every ID of
// g's dictionary to the same term — in practice nd is a scratch overlay
// of g.Dict() (see dict.Scratch) — so the view shares g's triple set
// and cached permutations unchanged. Derivations from the view
// (closures, merges, answers) then intern new terms into the overlay
// rather than the shared base dictionary.
//
// The view aliases g's triple set: neither the view nor g may be
// mutated afterwards. Clone the view first if a mutable graph is
// needed.
func (g *Graph) WithDict(nd *dict.Dict) *Graph {
	h := &Graph{d: nd, set: g.set}
	h.version = g.version
	for o := range g.idx {
		h.idx[o].Store(g.idx[o].Load())
	}
	return h
}

// Equal reports set equality of the two graphs (not isomorphism).
func (g *Graph) Equal(h *Graph) bool {
	if g.Len() != h.Len() {
		return false
	}
	return g.containedIn(h)
}

// SubgraphOf reports whether every triple of g is in h (g ⊆ h).
func (g *Graph) SubgraphOf(h *Graph) bool {
	if g.Len() > h.Len() {
		return false
	}
	return g.containedIn(h)
}

// containedIn reports whether every triple of g is in h, re-resolving
// terms when the graphs do not share a dictionary.
func (g *Graph) containedIn(h *Graph) bool {
	sameDict := g.d == h.d
	contained := true
	g.EachID(func(enc dict.Triple3) bool {
		henc := enc
		if !sameDict {
			var ok bool
			henc, ok = h.lookupTriple(g.decode(enc))
			if !ok {
				contained = false
				return false
			}
		}
		if !h.hasEnc(henc) {
			contained = false
			return false
		}
		return true
	})
	return contained
}

// ProperSubgraphOf reports g ⊊ h.
func (g *Graph) ProperSubgraphOf(h *Graph) bool {
	return g.Len() < h.Len() && g.SubgraphOf(h)
}

// AddAll inserts every triple of h into g and returns g. When the two
// graphs share a dictionary this copies IDs; otherwise each triple is
// re-interned once.
func (g *Graph) AddAll(h *Graph) *Graph {
	if g.d == h.d {
		h.EachID(func(enc dict.Triple3) bool {
			g.insert(enc)
			return true
		})
		return g
	}
	h.EachID(func(enc dict.Triple3) bool {
		g.insert(dict.Triple3{
			g.d.Intern(h.d.TermOf(enc[0])),
			g.d.Intern(h.d.TermOf(enc[1])),
			g.d.Intern(h.d.TermOf(enc[2])),
		})
		return true
	})
	return g
}

// Minus returns g ∖ h as a new graph (sharing g's dictionary).
func (g *Graph) Minus(h *Graph) *Graph {
	out := NewWithDict(g.d)
	sameDict := g.d == h.d
	g.EachID(func(enc dict.Triple3) bool {
		if sameDict {
			if h.hasEnc(enc) {
				return true
			}
		} else if h.Has(g.decode(enc)) {
			return true
		}
		out.set[enc] = struct{}{}
		return true
	})
	return out
}

// Without returns a copy of g with the single triple t removed.
func (g *Graph) Without(t Triple) *Graph {
	out := g.Clone()
	out.Remove(t)
	return out
}

// Union returns G1 ∪ G2: the set-theoretical union of the triple sets.
// Blank nodes with equal labels are identified (that is the point of
// union as opposed to merge).
func Union(g1, g2 *Graph) *Graph {
	out := g1.Clone()
	out.AddAll(g2)
	return out
}

// Merge returns G1 + G2: the union of G1 with an isomorphic copy of G2
// whose blank nodes are disjoint from those of G1 (Section 2.1). The
// result is unique up to isomorphism; this implementation renames only
// the colliding blanks of G2, deterministically.
func Merge(g1, g2 *Graph) *Graph {
	used := g1.BlankNodes()
	ren := make(Map)
	for _, b := range g2.BlankNodeList() {
		if _, clash := used[b]; !clash {
			continue
		}
		fresh := freshBlank(b.Value, used, g2)
		ren[b] = fresh
		used[fresh] = struct{}{}
	}
	out := g1.Clone()
	out.AddAll(ren.Apply(g2))
	return out
}

// freshBlank derives a blank node label not used in either graph.
func freshBlank(base string, used map[term.Term]struct{}, other *Graph) term.Term {
	for i := 1; ; i++ {
		cand := term.NewBlank(fmt.Sprintf("%s~%d", base, i))
		if _, ok := used[cand]; ok {
			continue
		}
		if _, ok := other.BlankNodes()[cand]; ok {
			continue
		}
		return cand
	}
}

// universeIDs returns the set of IDs occurring in the triples of G.
func (g *Graph) universeIDs() map[dict.ID]struct{} {
	u := make(map[dict.ID]struct{})
	g.EachID(func(enc dict.Triple3) bool {
		u[enc[0]] = struct{}{}
		u[enc[1]] = struct{}{}
		u[enc[2]] = struct{}{}
		return true
	})
	return u
}

// Universe returns universe(G): the set of elements of U ∪ B (and
// literals, in the extended model) occurring in the triples of G.
func (g *Graph) Universe() map[term.Term]struct{} {
	u := make(map[term.Term]struct{})
	for id := range g.universeIDs() {
		u[g.d.TermOf(id)] = struct{}{}
	}
	return u
}

// UniverseSize returns |universe(G)| without decoding any term — the
// live-term count the database compares against its dictionary length
// when deciding whether compaction would pay off.
func (g *Graph) UniverseSize() int { return len(g.universeIDs()) }

// UniverseList returns universe(G) in canonical order.
func (g *Graph) UniverseList() []term.Term {
	u := g.Universe()
	out := make([]term.Term, 0, len(u))
	for t := range u {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// Vocabulary returns voc(G) = universe(G) ∩ U.
func (g *Graph) Vocabulary() map[term.Term]struct{} {
	v := make(map[term.Term]struct{})
	for id := range g.universeIDs() {
		if g.d.KindOf(id) == term.KindIRI {
			v[g.d.TermOf(id)] = struct{}{}
		}
	}
	return v
}

// BlankIDs returns the set of blank-node IDs occurring in G.
func (g *Graph) BlankIDs() map[dict.ID]struct{} {
	d := g.d
	b := make(map[dict.ID]struct{})
	g.EachID(func(enc dict.Triple3) bool {
		if d.KindOf(enc[0]) == term.KindBlank {
			b[enc[0]] = struct{}{}
		}
		if d.KindOf(enc[2]) == term.KindBlank {
			b[enc[2]] = struct{}{}
		}
		// A blank predicate cannot occur in a well-formed triple, but
		// Map.Apply keeps instances exactly as produced, so check anyway.
		if d.KindOf(enc[1]) == term.KindBlank {
			b[enc[1]] = struct{}{}
		}
		return true
	})
	return b
}

// BlankNodes returns the set of blank nodes occurring in G.
func (g *Graph) BlankNodes() map[term.Term]struct{} {
	b := make(map[term.Term]struct{})
	for id := range g.BlankIDs() {
		b[g.d.TermOf(id)] = struct{}{}
	}
	return b
}

// BlankNodeList returns the blank nodes of G in canonical order.
func (g *Graph) BlankNodeList() []term.Term {
	b := g.BlankNodes()
	out := make([]term.Term, 0, len(b))
	for t := range b {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}

// IsGround reports whether G has no blank nodes.
func (g *Graph) IsGround() bool {
	d := g.d
	ground := true
	g.EachID(func(enc dict.Triple3) bool {
		if d.KindOf(enc[0]) == term.KindBlank ||
			d.KindOf(enc[1]) == term.KindBlank ||
			d.KindOf(enc[2]) == term.KindBlank {
			ground = false
			return false
		}
		return true
	})
	return ground
}

// Predicates returns the set of predicates used in G.
func (g *Graph) Predicates() map[term.Term]struct{} {
	p := make(map[term.Term]struct{})
	seen := make(map[dict.ID]struct{})
	g.EachID(func(enc dict.Triple3) bool {
		if _, ok := seen[enc[1]]; !ok {
			seen[enc[1]] = struct{}{}
			p[g.d.TermOf(enc[1])] = struct{}{}
		}
		return true
	})
	return p
}

// WithPredicate returns the triples of G whose predicate is p, in
// canonical order. The lookup is a POS range scan.
func (g *Graph) WithPredicate(p term.Term) []Triple {
	pid, ok := g.d.Lookup(p)
	if !ok {
		return nil
	}
	var out []Triple
	g.MatchID(dict.Wildcard, pid, dict.Wildcard, func(enc dict.Triple3) bool {
		out = append(out, g.decode(enc))
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// String renders the graph as sorted N-Triples-style lines.
func (g *Graph) String() string {
	var b strings.Builder
	for _, t := range g.Triples() {
		b.WriteString(t.String())
		b.WriteString(" .\n")
	}
	return b.String()
}

// Map is a map μ : UB → UB preserving URIs (μ(u) = u for u ∈ U), Section
// 2.1. It is represented sparsely: only blank nodes with a non-identity
// image appear as keys. Keys must be blank nodes.
type Map map[term.Term]term.Term

// Of returns μ(x): the image of x, which is x itself unless x is a blank
// node explicitly mapped.
func (m Map) Of(x term.Term) term.Term {
	if y, ok := m[x]; ok {
		return y
	}
	return x
}

// ApplyTriple returns (μ(s), μ(p), μ(o)).
func (m Map) ApplyTriple(t Triple) Triple {
	return Triple{S: m.Of(t.S), P: m.Of(t.P), O: m.Of(t.O)}
}

// Apply returns μ(G) = {(μ(s), μ(p), μ(o)) : (s,p,o) ∈ G}. Triples that
// become ill-formed under μ (a blank mapped into predicate position can
// not occur, since predicates are URIs and maps preserve URIs) are kept
// as produced; Apply never invents or drops triples beyond set collapse.
// The result shares g's dictionary and the substitution runs on IDs.
func (m Map) Apply(g *Graph) *Graph {
	out := NewWithDict(g.d)
	if len(m) == 0 {
		g.EachID(func(enc dict.Triple3) bool {
			out.set[enc] = struct{}{}
			return true
		})
		return out
	}
	idm := make(map[dict.ID]dict.ID, len(m))
	for k, v := range m {
		if kid, ok := g.d.Lookup(k); ok {
			idm[kid] = g.d.Intern(v)
		}
	}
	sub := func(id dict.ID) dict.ID {
		if y, ok := idm[id]; ok {
			return y
		}
		return id
	}
	g.EachID(func(enc dict.Triple3) bool {
		out.set[dict.Triple3{sub(enc[0]), sub(enc[1]), sub(enc[2])}] = struct{}{}
		return true
	})
	return out
}

// Compose returns the map x ↦ n(m(x)).
func (m Map) Compose(n Map) Map {
	out := make(Map, len(m)+len(n))
	for k, v := range m {
		out[k] = n.Of(v)
	}
	for k, v := range n {
		if _, ok := out[k]; !ok {
			out[k] = v
		}
	}
	return out
}

// IsIdentityOn reports whether μ is the identity on all blanks of g.
func (m Map) IsIdentityOn(g *Graph) bool {
	for b := range g.BlankNodes() {
		if m.Of(b) != b {
			return false
		}
	}
	return true
}

// Validate reports an error if any key is not a blank node or any value
// is a variable.
func (m Map) Validate() error {
	for k, v := range m {
		if !k.IsBlank() {
			return fmt.Errorf("graph: map key %s is not a blank node", k)
		}
		if v.IsVar() {
			return fmt.Errorf("graph: map value %s is a variable", v)
		}
	}
	return nil
}

// IsInstanceOf reports whether h = μ(g) for the given μ, i.e. whether h
// is the instance of g induced by μ.
func IsInstanceOf(h, g *Graph, m Map) bool {
	return m.Apply(g).Equal(h)
}

// SkolemPrefix is the reserved IRI prefix used by Skolemize; it encodes
// the paper's "brand new constant c_X" for each blank X (Section 3.1).
const SkolemPrefix = "urn:semwebdb:skolem:"

// Skolemize returns G*: the graph obtained by replacing each blank node X
// of G by the fresh constant c_X (Definition preceding Lemma 3.4). The
// result shares G's dictionary.
func Skolemize(g *Graph) *Graph {
	idm := make(map[dict.ID]dict.ID)
	for id := range g.BlankIDs() {
		idm[id] = g.d.Intern(term.NewIRI(SkolemPrefix + g.d.TermOf(id).Value))
	}
	sub := func(id dict.ID) dict.ID {
		if y, ok := idm[id]; ok {
			return y
		}
		return id
	}
	out := NewWithDict(g.d)
	g.EachID(func(enc dict.Triple3) bool {
		out.set[dict.Triple3{sub(enc[0]), enc[1], sub(enc[2])}] = struct{}{}
		return true
	})
	return out
}

// Unskolemize returns H⋆: the graph obtained by replacing each skolem
// constant c_X back by the blank X and deleting triples that end up with
// a blank in predicate position (which are not well-formed RDF triples).
func Unskolemize(h *Graph) *Graph {
	memo := make(map[dict.ID]dict.ID)
	isSkolem := make(map[dict.ID]bool)
	sub := func(id dict.ID) (dict.ID, bool) {
		if y, ok := memo[id]; ok {
			return y, isSkolem[id]
		}
		y := id
		skolem := false
		if h.d.KindOf(id) == term.KindIRI {
			if v := h.d.TermOf(id).Value; strings.HasPrefix(v, SkolemPrefix) {
				y = h.d.Intern(term.NewBlank(strings.TrimPrefix(v, SkolemPrefix)))
				skolem = true
			}
		}
		memo[id] = y
		isSkolem[id] = skolem
		return y, skolem
	}
	out := NewWithDict(h.d)
	h.EachID(func(enc dict.Triple3) bool {
		s, _ := sub(enc[0])
		p, pSkolem := sub(enc[1])
		o, _ := sub(enc[2])
		if pSkolem {
			return true // blank in predicate position: dropped, per Section 3.1
		}
		out.set[dict.Triple3{s, p, o}] = struct{}{}
		return true
	})
	return out
}

// IsSkolemConstant reports whether the term is a skolem constant c_X.
func IsSkolemConstant(x term.Term) bool {
	return x.IsIRI() && strings.HasPrefix(x.Value, SkolemPrefix)
}

// RenameBlanksApart returns a copy of g whose blank nodes are renamed with
// the given suffix so that they are disjoint from any "natural" blanks.
// It is used to implement merge semantics of answers and Ω_q rewriting.
func RenameBlanksApart(g *Graph, suffix string) *Graph {
	ren := make(Map)
	for b := range g.BlankNodes() {
		ren[b] = term.NewBlank(b.Value + suffix)
	}
	return ren.Apply(g)
}

// GroundPart returns the subgraph of ground triples of g.
func (g *Graph) GroundPart() *Graph {
	d := g.d
	out := NewWithDict(g.d)
	g.EachID(func(enc dict.Triple3) bool {
		if d.KindOf(enc[0]) == term.KindBlank ||
			d.KindOf(enc[1]) == term.KindBlank ||
			d.KindOf(enc[2]) == term.KindBlank {
			return true
		}
		out.set[enc] = struct{}{}
		return true
	})
	return out
}

// NonGroundTriples returns the triples mentioning at least one blank, in
// canonical order.
func (g *Graph) NonGroundTriples() []Triple {
	d := g.d
	var out []Triple
	g.EachID(func(enc dict.Triple3) bool {
		if d.KindOf(enc[0]) == term.KindBlank ||
			d.KindOf(enc[1]) == term.KindBlank ||
			d.KindOf(enc[2]) == term.KindBlank {
			out = append(out, g.decode(enc))
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}
