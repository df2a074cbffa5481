// Package semweb is the public front door to the semwebdb engine — a Go
// implementation of "Foundations of Semantic Web databases" (Gutierrez,
// Hurtado, Mendelzon; PODS 2004): RDF graphs with RDFS semantics,
// closures, cores and normal forms, tableau queries with premises and
// constraints under union and merge semantics, and query containment.
//
// The central type is DB, opened with Open (in memory) or OpenAt
// (durable, rooted at a directory) and populated with LoadNTriples,
// LoadTurtle, LoadFile, LoadFiles or Add:
//
//	db, _ := semweb.Open()
//	if err := db.LoadFile("data.ttl"); err != nil { ... }
//
// A durable database keeps a binary snapshot (term dictionary, triple
// set and the three sorted index permutations, all CRC-framed) plus a
// write-ahead log in its directory: every mutation is logged before it
// is published, Snapshot checkpoints the state and truncates the log,
// Close flushes it, and reopening recovers the exact dictionary IDs
// and ready-sorted indexes — including after a crash, where a torn
// final log record is discarded and every complete one replays:
//
//	db, _ := semweb.OpenAt("/var/lib/mydb")
//	defer db.Close()
//	if err := db.LoadFiles("a.nt", "b.nt"); err != nil { ... } // one logged batch
//	if err := db.Snapshot(); err != nil { ... }                // checkpoint
//
// Queries are assembled with the fluent builder and evaluated with
// DB.Eval, which honors context cancellation and deadlines all the way
// down into the closure saturation and homomorphism-search loops:
//
//	X := semweb.Var("X")
//	q := semweb.NewQuery().
//		Head(semweb.T(X, semweb.IRI("urn:ex:isArtist"), semweb.Literal("true"))).
//		Body(semweb.T(X, semweb.Type, semweb.IRI("urn:ex:artist"))).
//		Under(semweb.Union)
//	ans, err := db.Eval(ctx, q)
//
// RDFS closure saturation — the engine behind Eval's matching-universe
// preparation — is one semi-naive fixpoint computation, shared with the
// incremental maintenance that folds inserts into the cached universe.
// Closure, Entails, Equivalent, NormalForm, Fingerprint and Infers read
// that same cached cl(D)/nf(D), so they saturate nothing once it is warm.
// See ARCHITECTURE.md for the engine and the repository-wide
// concurrency model.
//
// Errors are typed: ErrMalformedQuery wraps every query well-formedness
// violation, ErrCancelled wraps every context cancellation, and syntax
// errors from the N-Triples, Turtle and query parsers surface as
// *ParseError values carrying line and column information.
//
// Package-level functions (Entails, Equivalent, Closure, NormalForm,
// Contained, ...) expose the same machinery over standalone graphs for
// callers that do not need a long-lived database. The experiment
// registry reproducing the paper's theorems is reachable through
// Experiments and RunExperiments.
//
// Everything under internal/ is implementation detail; this package is
// the only supported import surface for applications. (The cliutil
// subpackage exists solely for the bundled command line tools and
// carries no stability promise.)
package semweb
