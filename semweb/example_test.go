package semweb_test

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"semwebdb/semweb"
)

// ExampleOpen shows the minimal Open → Add → Eval round trip.
func ExampleOpen() {
	db, _ := semweb.Open()
	son := semweb.IRI("urn:ex:son")
	child := semweb.IRI("urn:ex:child")
	_ = db.Add(
		semweb.T(son, semweb.SubPropertyOf, child),
		semweb.T(semweb.IRI("urn:ex:tom"), son, semweb.IRI("urn:ex:mary")),
	)

	// (tom, son, mary) plus son ⊑ child entails (tom, child, mary).
	X := semweb.Var("X")
	q := semweb.NewQuery().
		Head(semweb.T(X, child, semweb.IRI("urn:ex:mary"))).
		Body(semweb.T(X, child, semweb.IRI("urn:ex:mary")))
	ans, _ := db.Eval(context.Background(), q)
	fmt.Print(ans.NTriples())
	// Output:
	// <urn:ex:tom> <urn:ex:child> <urn:ex:mary> .
}

// ExampleDB_Eval evaluates an inference-heavy query over the paper's
// Fig. 1 schema loaded from Turtle.
func ExampleDB_Eval() {
	db, _ := semweb.Open()
	_ = db.LoadTurtle(strings.NewReader(`
		@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
		@prefix art: <urn:art:> .
		art:painter rdfs:subClassOf art:artist .
		art:paints  rdfs:subPropertyOf art:creates .
		art:creates rdfs:domain art:artist .
		art:picasso art:paints art:guernica .
	`))

	// picasso is an artist only through paints ⊑ creates and dom.
	A := semweb.Var("A")
	q := semweb.NewQuery().
		Head(semweb.T(A, semweb.IRI("urn:art:isArtist"), semweb.Literal("true"))).
		Body(semweb.T(A, semweb.Type, semweb.IRI("urn:art:artist")))
	ans, _ := db.Eval(context.Background(), q)
	fmt.Print(ans.NTriples())
	// Output:
	// <urn:art:picasso> <urn:art:isArtist> "true" .
}

// ExampleQuery_Under contrasts the union and merge answer semantics on
// a database with a shared blank node.
func ExampleQuery_Under() {
	data, _ := semweb.ParseNTriples(
		"<urn:ex:a> <urn:ex:p> _:b .\n" +
			"<urn:ex:c> <urn:ex:p> _:b .\n")
	db, _ := semweb.Open(semweb.WithGraph(data))

	X, Y := semweb.Var("X"), semweb.Var("Y")
	q := semweb.NewQuery().
		Head(semweb.T(X, semweb.IRI("urn:ex:q"), Y)).
		Body(semweb.T(X, semweb.IRI("urn:ex:p"), Y))

	union, _ := db.Eval(context.Background(), q.Under(semweb.Union))
	merged, _ := db.Eval(context.Background(), q.Under(semweb.Merge))
	fmt.Printf("union keeps %d shared blank(s); merge renames apart into %d\n",
		len(union.Graph().BlankNodes()), len(merged.Graph().BlankNodes()))
	// Output:
	// union keeps 1 shared blank(s); merge renames apart into 2
}

// ExampleParseQuery parses the textual tableau format used by
// cmd/rdfquery, premise and constraints included.
func ExampleParseQuery() {
	q, err := semweb.ParseQuery(`
		HEAD:
		?X <urn:ex:relative> <urn:ex:peter> .
		BODY:
		?X <urn:ex:relative> <urn:ex:peter> .
		PREMISE:
		<urn:ex:son> <http://www.w3.org/2000/01/rdf-schema#subPropertyOf> <urn:ex:relative> .
		CONSTRAINTS: ?X
	`)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(q)
	// Output:
	// (?X, <urn:ex:relative>, <urn:ex:peter>) ← (?X, <urn:ex:relative>, <urn:ex:peter>) with premise {1 triples} constraints {?X}
}

// ExampleAnswer_NTriples shows the Answer → N-Triples → Graph round
// trip: the serialization parses back into an isomorphic graph.
func ExampleAnswer_NTriples() {
	db, _ := semweb.Open()
	_ = db.Add(semweb.T(semweb.IRI("urn:ex:rodin"), semweb.IRI("urn:ex:sculpts"), semweb.IRI("urn:ex:thinker")))

	A, Y := semweb.Var("A"), semweb.Var("Y")
	q := semweb.NewQuery().
		Head(
			semweb.T(semweb.Blank("Event"), semweb.IRI("urn:ex:by"), A),
			semweb.T(semweb.Blank("Event"), semweb.IRI("urn:ex:made"), Y),
		).
		Body(semweb.T(A, semweb.IRI("urn:ex:sculpts"), Y))
	ans, _ := db.Eval(context.Background(), q)

	back, _ := semweb.ParseNTriples(ans.NTriples())
	fmt.Println("round-trips isomorphically:", semweb.Isomorphic(ans.Graph(), back))
	// Output:
	// round-trips isomorphically: true
}

// ExampleOpenAt shows the durable lifecycle: open a database directory,
// load, checkpoint, close — then recover it with the same contents.
func ExampleOpenAt() {
	dir, _ := os.MkdirTemp("", "semwebdb-example")
	defer os.RemoveAll(dir)

	db, _ := semweb.OpenAt(dir)
	_ = db.Add(semweb.T(semweb.IRI("urn:ex:tom"), semweb.IRI("urn:ex:son"), semweb.IRI("urn:ex:mary")))
	_ = db.Snapshot() // checkpoint into the binary snapshot file
	_ = db.Close()

	db2, _ := semweb.OpenAt(dir)
	defer db2.Close()
	st := db2.Stats()
	fmt.Printf("recovered %d triple(s), persistent=%v\n", st.Triples, st.Persistent)
	// Output:
	// recovered 1 triple(s), persistent=true
}

// ExampleDB_Snapshot shows what a checkpoint does to the on-disk state:
// the write-ahead log is folded into a fresh snapshot and truncated.
func ExampleDB_Snapshot() {
	dir, _ := os.MkdirTemp("", "semwebdb-example")
	defer os.RemoveAll(dir)

	db, _ := semweb.OpenAt(dir)
	defer db.Close()
	_ = db.Add(semweb.T(semweb.IRI("urn:ex:a"), semweb.IRI("urn:ex:p"), semweb.IRI("urn:ex:b")))

	before := db.Stats()
	_ = db.Snapshot()
	after := db.Stats()
	fmt.Printf("WAL records %d -> %d, snapshot on disk: %v\n",
		before.WALRecords, after.WALRecords, after.SnapshotBytes > 0)
	// Output:
	// WAL records 4 -> 0, snapshot on disk: true
}

// ExampleDB_Compact reclaims dictionary entries the live triples no
// longer use — here left behind by a mutated Graph() copy, which
// shares the database's dictionary. Query evaluation itself never
// grows the dictionary (it interns into scratch overlays).
func ExampleDB_Compact() {
	db, _ := semweb.Open()
	_ = db.Add(semweb.T(semweb.IRI("urn:ex:a"), semweb.IRI("urn:ex:p"), semweb.IRI("urn:ex:b")))

	scratchpad := db.Graph() // shares the dictionary
	scratchpad.Add(semweb.T(semweb.IRI("urn:tmp:x"), semweb.IRI("urn:tmp:q"), semweb.IRI("urn:tmp:y")))

	before := db.Stats()
	_ = db.Compact()
	after := db.Stats()
	fmt.Printf("dict terms %d -> %d (live: %d)\n", before.DictTerms, after.DictTerms, after.Terms)
	// Output:
	// dict terms 6 -> 3 (live: 3)
}

// ExampleDB_LoadFiles ingests several files in one batch: a single
// snapshot swap (and, on a durable database, a single logged fsync)
// instead of one per file.
func ExampleDB_LoadFiles() {
	dir, _ := os.MkdirTemp("", "semwebdb-example")
	defer os.RemoveAll(dir)
	a := filepath.Join(dir, "a.nt")
	b := filepath.Join(dir, "b.nt")
	_ = os.WriteFile(a, []byte("<urn:ex:a> <urn:ex:p> <urn:ex:b> .\n"), 0o644)
	_ = os.WriteFile(b, []byte("<urn:ex:c> <urn:ex:p> <urn:ex:d> .\n"), 0o644)

	db, _ := semweb.Open()
	if err := db.LoadFiles(a, b); err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("loaded", db.Len(), "triples")
	// Output:
	// loaded 2 triples
}

// ExampleDB_Eval_cancellation shows the typed error surfaced when a
// context is cancelled mid-evaluation.
func ExampleDB_Eval_cancellation() {
	db, _ := semweb.Open()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: evaluation aborts immediately

	_, err := db.Eval(ctx, semweb.Identity())
	fmt.Println(errors.Is(err, semweb.ErrCancelled))
	// Output:
	// true
}
