// Package dict implements the dictionary-encoding substrate shared by
// the graph, store and match layers: RDF terms are interned to dense
// integer IDs, triples become fixed-size ID triples (Triple3), and the
// three sorted permutations SPO/POS/OSP turn every triple pattern with a
// bound position into a binary-search range scan.
//
// A Dict is safe for concurrent use: interning serializes behind a
// mutex, while the ID→term and ID→kind read paths are lock-free
// (an atomically published append-only view). IDs are dense and start
// at 1; ID 0 is the Wildcard, marking an unbound pattern position.
package dict

import (
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"semwebdb/internal/term"
)

// ID is a dictionary-encoded term identifier. The zero ID is reserved
// as the pattern wildcard and never names a term.
type ID uint32

// Wildcard marks an unbound position in a triple pattern.
const Wildcard ID = 0

// Triple3 is a dictionary-encoded triple (subject, predicate, object).
type Triple3 [3]ID

// Less orders Triple3 values lexicographically by position.
func (t Triple3) Less(u Triple3) bool {
	if t[0] != u[0] {
		return t[0] < u[0]
	}
	if t[1] != u[1] {
		return t[1] < u[1]
	}
	return t[2] < u[2]
}

// Order names one of the maintained index permutations.
type Order int

const (
	// SPO orders triples by subject, predicate, object.
	SPO Order = iota
	// POS orders triples by predicate, object, subject.
	POS
	// OSP orders triples by object, subject, predicate.
	OSP
)

// Permute maps a triple into the key layout of the given order.
func Permute(t Triple3, o Order) Triple3 {
	switch o {
	case POS:
		return Triple3{t[1], t[2], t[0]}
	case OSP:
		return Triple3{t[2], t[0], t[1]}
	default:
		return t
	}
}

// Unpermute inverts Permute.
func Unpermute(k Triple3, o Order) Triple3 {
	switch o {
	case POS:
		return Triple3{k[2], k[0], k[1]}
	case OSP:
		return Triple3{k[1], k[2], k[0]}
	default:
		return k
	}
}

// ChooseOrder selects the permutation whose leading key positions cover
// the most bound pattern positions, returning it together with the
// length of the fully-bound key prefix. With all three permutations
// maintained, every bound subset of {S,P,O} except the empty one is a
// full prefix of some order, so range scans never post-filter.
func ChooseOrder(sb, pb, ob bool) (Order, int) {
	prefix := func(a, b, c bool) int {
		switch {
		case a && b && c:
			return 3
		case a && b:
			return 2
		case a:
			return 1
		default:
			return 0
		}
	}
	best, bestLen := SPO, prefix(sb, pb, ob)
	if n := prefix(pb, ob, sb); n > bestLen {
		best, bestLen = POS, n
	}
	if n := prefix(ob, sb, pb); n > bestLen {
		best, bestLen = OSP, n
	}
	return best, bestLen
}

// SortIndex sorts a permuted key slice in place.
func SortIndex(idx []Triple3) {
	sort.Slice(idx, func(i, j int) bool { return idx[i].Less(idx[j]) })
}

// MergeSorted merges two sorted, pairwise-disjoint key runs into one
// sorted slice in O(len(a)+len(b)), without re-sorting the
// concatenation. When one run is empty the other is returned as-is
// (callers hand over ownership of the runs).
func MergeSorted(a, b []Triple3) []Triple3 {
	if len(b) == 0 {
		return a
	}
	if len(a) == 0 {
		return b
	}
	out := make([]Triple3, 0, len(a)+len(b))
	for len(a) > 0 && len(b) > 0 {
		if b[0].Less(a[0]) {
			out, b = append(out, b[0]), b[1:]
		} else {
			out, a = append(out, a[0]), a[1:]
		}
	}
	out = append(out, a...)
	return append(out, b...)
}

// SearchRange returns the half-open interval [lo, hi) of entries of the
// sorted key slice idx whose first `prefix` positions equal those of
// key. A prefix of 0 selects the whole slice.
func SearchRange(idx []Triple3, key Triple3, prefix int) (lo, hi int) {
	if prefix <= 0 {
		return 0, len(idx)
	}
	lo = sort.Search(len(idx), func(i int) bool {
		return !prefixLess(idx[i], key, prefix)
	})
	hi = lo + sort.Search(len(idx)-lo, func(i int) bool {
		return prefixGreater(idx[lo+i], key, prefix)
	})
	return lo, hi
}

func prefixLess(a, key Triple3, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != key[i] {
			return a[i] < key[i]
		}
	}
	return false
}

func prefixGreater(a, key Triple3, n int) bool {
	for i := 0; i < n; i++ {
		if a[i] != key[i] {
			return a[i] > key[i]
		}
	}
	return false
}

// view is the atomically published read state: parallel append-only
// slices indexed by ID-1 (minus the scratch offset for overlays).
// Published elements are never rewritten, so a loaded view stays valid
// while writers append behind it.
type view struct {
	terms []term.Term
	kinds []term.Kind
}

// segment is one frozen layer of base-dictionary state visible through
// a scratch overlay: the terms with IDs in (lo, hi], sharing the base's
// published backing arrays (published elements are immutable, so the
// shared prefix never changes under the overlay).
type segment struct {
	lo, hi int
	terms  []term.Term
	kinds  []term.Kind
}

// Dict interns terms to dense IDs and resolves them back. The zero
// value is not ready to use; construct with New.
//
// A Dict is either a root dictionary (New) owning the whole ID space,
// or a scratch overlay (Scratch) that reads through a base dictionary
// and appends only to a private extension of its ID space. All methods
// behave identically on both; see Scratch for the overlay contract.
type Dict struct {
	mu  sync.RWMutex // guards ids and writer-side appends
	ids map[term.Term]ID
	v   atomic.Pointer[view]

	// Scratch-overlay state; zero for root dictionaries. off is the
	// number of base IDs frozen into the overlay's view of the ID space,
	// segs are the frozen base layers in ascending ID order (contiguous:
	// segs[0].lo == 0, segs[k].lo == segs[k-1].hi, segs[last].hi == off),
	// and base is the dictionary term→ID lookups fall through to.
	off  int
	segs []segment
	base *Dict
	comb atomic.Pointer[view] // cached Terms/Kinds materialization
}

// emptyView is the published state of a dictionary that has interned
// nothing. Views are never mutated after publication, so it is shared.
var emptyView = &view{}

// New returns an empty dictionary.
func New() *Dict {
	d := &Dict{ids: make(map[term.Term]ID)}
	d.v.Store(emptyView)
	return d
}

// Scratch returns a copy-on-write overlay over d: a dictionary that
// resolves every ID and term d holds at the time of the call exactly as
// d does — ID→term reads stay lock-free and fall straight through to
// the frozen base layers — while new interns land only in the overlay's
// private ID range (base len + 1 and up) and die with it. The base is
// never mutated through the overlay, which is what lets query
// evaluation intern pattern variables and per-matching Skolem blanks
// without growing the database dictionary.
//
// Terms interned into d after the overlay was created are not visible
// through it (their IDs would collide with the overlay's); such terms
// re-intern into the overlay with fresh private IDs. Overlays nest:
// Scratch on a scratch freezes the whole chain. An overlay is safe for
// concurrent use under the same contract as a root dictionary.
func (d *Dict) Scratch() *Dict {
	bv := d.v.Load()
	// ids is allocated by the first intern.
	s := &Dict{
		off:  d.off + len(bv.terms),
		base: d,
	}
	s.segs = make([]segment, 0, len(d.segs)+1)
	s.segs = append(s.segs, d.segs...)
	s.segs = append(s.segs, segment{lo: d.off, hi: d.off + len(bv.terms), terms: bv.terms, kinds: bv.kinds})
	s.v.Store(emptyView)
	scratchOverlays.Inc()
	return s
}

// Base returns the dictionary this overlay reads through, or nil for a
// root dictionary.
func (d *Dict) Base() *Dict { return d.base }

// lookupBounded resolves t against d and its base chain, accepting only
// IDs at or below max — IDs interned after an overlay froze this layer
// are invisible to that overlay and must be rejected, or the overlay's
// private range would alias them.
func (d *Dict) lookupBounded(t term.Term, max int) (ID, bool) {
	d.mu.RLock()
	id, ok := d.ids[t]
	d.mu.RUnlock()
	if ok {
		if int(id) <= max {
			return id, true
		}
		return 0, false
	}
	if d.base != nil {
		m := d.off
		if max < m {
			m = max
		}
		return d.base.lookupBounded(t, m)
	}
	return 0, false
}

// Intern returns the ID of t, allocating one if needed.
func (d *Dict) Intern(t term.Term) ID {
	if d.base != nil {
		if id, ok := d.base.lookupBounded(t, d.off); ok {
			return id
		}
	}
	d.mu.RLock()
	id, ok := d.ids[t]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id, ok := d.ids[t]; ok {
		return id
	}
	if d.ids == nil {
		d.ids = make(map[term.Term]ID)
	}
	old := d.v.Load()
	nv := &view{
		terms: append(old.terms, t),
		kinds: append(old.kinds, t.Kind()),
	}
	id = ID(d.off + len(nv.terms))
	d.ids[t] = id
	d.v.Store(nv)
	d.noteInterned(1)
	return id
}

// InternAll interns every term of ts (duplicates allowed). The terms
// new to d are published together — one view for the batch rather
// than one per term — which keeps encoding a pattern set into a fresh
// scratch overlay cheap.
func (d *Dict) InternAll(ts []term.Term) {
	if len(ts) == 0 {
		return
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.ids == nil {
		d.ids = make(map[term.Term]ID, len(ts))
	}
	old := d.v.Load()
	nv := &view{terms: slices.Grow(old.terms, len(ts)), kinds: slices.Grow(old.kinds, len(ts))}
	for _, t := range ts {
		if _, ok := d.ids[t]; ok {
			continue
		}
		if d.base != nil {
			if _, ok := d.base.lookupBounded(t, d.off); ok {
				continue
			}
		}
		nv.terms = append(nv.terms, t)
		nv.kinds = append(nv.kinds, t.Kind())
		d.ids[t] = ID(d.off + len(nv.terms))
	}
	if n := len(nv.terms) - len(old.terms); n > 0 {
		d.v.Store(nv)
		d.noteInterned(uint64(n))
	}
}

// Lookup returns the ID of t if it has been interned (in this
// dictionary or, for a scratch overlay, in a visible base layer).
func (d *Dict) Lookup(t term.Term) (ID, bool) {
	d.mu.RLock()
	id, ok := d.ids[t]
	d.mu.RUnlock()
	if ok {
		return id, true
	}
	if d.base != nil {
		return d.base.lookupBounded(t, d.off)
	}
	return 0, false
}

// baseTerm resolves an ID frozen below the overlay: the segments are
// contiguous and at most a few deep, so this is a couple of integer
// compares, no lock and no pointer chase through the base.
func (d *Dict) baseTerm(i int) term.Term {
	for k := len(d.segs) - 1; ; k-- {
		if s := &d.segs[k]; i > s.lo {
			return s.terms[i-s.lo-1]
		}
	}
}

func (d *Dict) baseKind(i int) term.Kind {
	for k := len(d.segs) - 1; ; k-- {
		if s := &d.segs[k]; i > s.lo {
			return s.kinds[i-s.lo-1]
		}
	}
}

// TermOf returns the term for an ID. It panics on the Wildcard or an
// unallocated ID.
func (d *Dict) TermOf(id ID) term.Term {
	if i := int(id); i <= d.off {
		return d.baseTerm(i)
	}
	return d.v.Load().terms[int(id)-d.off-1]
}

// KindOf returns the syntactic category of the term named by id.
func (d *Dict) KindOf(id ID) term.Kind {
	if i := int(id); i <= d.off {
		return d.baseKind(i)
	}
	return d.v.Load().kinds[int(id)-d.off-1]
}

// Len returns the number of interned terms (including, for a scratch
// overlay, the frozen base prefix it reads through).
func (d *Dict) Len() int { return d.off + len(d.v.Load().terms) }

// combined materializes (and caches) the flattened base+overlay view of
// a scratch dictionary. The copy is O(Len) and invalidated by overlay
// interns; engine hot paths use TermOf/KindOf instead and never pay it.
func (d *Dict) combined() *view {
	ov := d.v.Load()
	n := d.off + len(ov.terms)
	if c := d.comb.Load(); c != nil && len(c.terms) == n {
		return c
	}
	terms := make([]term.Term, 0, n)
	kinds := make([]term.Kind, 0, n)
	for _, s := range d.segs {
		terms = append(terms, s.terms...)
		kinds = append(kinds, s.kinds...)
	}
	terms = append(terms, ov.terms...)
	kinds = append(kinds, ov.kinds...)
	c := &view{terms: terms, kinds: kinds}
	d.comb.Store(c)
	return c
}

// Terms returns a stable snapshot of the interned terms, indexed by
// ID-1. The slice is shared and must not be modified; terms interned
// after the call are not visible through it. On a scratch overlay this
// materializes (and caches) a flattened copy — cold-path callers only;
// hot loops resolve individual IDs with TermOf.
func (d *Dict) Terms() []term.Term {
	if d.base == nil {
		return d.v.Load().terms
	}
	return d.combined().terms
}

// Kinds returns a stable snapshot of the term kinds, indexed by ID-1,
// under the same contract (and scratch-overlay cost) as Terms.
func (d *Dict) Kinds() []term.Kind {
	if d.base == nil {
		return d.v.Load().kinds
	}
	return d.combined().kinds
}
