package query

import (
	"context"
	"fmt"
	"testing"

	"semwebdb/internal/graph"
	"semwebdb/internal/match"
	"semwebdb/internal/term"
)

// chainData builds n ground triples <urn:s:i> <urn:p> <urn:o:i>.
func chainData(n int) *graph.Graph {
	g := graph.New()
	for i := 0; i < n; i++ {
		g.Add(graph.T(
			term.NewIRI(fmt.Sprintf("urn:s:%d", i)),
			term.NewIRI("urn:p"),
			term.NewIRI(fmt.Sprintf("urn:o:%d", i)),
		))
	}
	return g
}

func streamQuery() *Query {
	x, y := term.NewVar("X"), term.NewVar("Y")
	return New(
		[]graph.Triple{{S: x, P: term.NewIRI("urn:q"), O: y}},
		[]graph.Triple{{S: x, P: term.NewIRI("urn:p"), O: y}},
	)
}

// TestStreamMatchesEvaluate cross-checks the streaming path against the
// materializing one: same single answers (as a set), same matching
// count, same truncation flag.
func TestStreamMatchesEvaluate(t *testing.T) {
	ctx := context.Background()
	data := chainData(17)
	prepared, err := Prepare(ctx, data, false)
	if err != nil {
		t.Fatal(err)
	}
	ix := match.NewIndex(prepared)
	q := streamQuery()

	for _, limit := range []int{0, 5, 17, 30} {
		opts := Options{MaxMatchings: limit}
		ans, err := EvaluatePreparedIndexCtx(ctx, q, ix, opts)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]bool{}
		st, err := StreamPreparedIndexCtx(ctx, q, ix, opts, func(s Single) bool {
			got[s.Graph.String()] = true
			if s.Matching < 1 {
				t.Errorf("limit %d: matching ordinal %d < 1", limit, s.Matching)
			}
			if len(s.Binding) != 2 {
				t.Errorf("limit %d: binding has %d vars, want 2", limit, len(s.Binding))
			}
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		if st.Matchings != ans.Matchings || st.Truncated != ans.Truncated {
			t.Errorf("limit %d: stream stats (%d, %v) != answer (%d, %v)",
				limit, st.Matchings, st.Truncated, ans.Matchings, ans.Truncated)
		}
		if st.Singles != len(ans.Singles) || len(got) != len(ans.Singles) {
			t.Errorf("limit %d: stream singles %d (distinct %d), answer %d",
				limit, st.Singles, len(got), len(ans.Singles))
		}
		for _, s := range ans.Singles {
			if !got[s.String()] {
				t.Errorf("limit %d: single %q missing from stream", limit, s.String())
			}
		}
	}
}

// TestStreamYieldStop verifies that a yield returning false stops the
// enumeration without error and without reporting truncation.
func TestStreamYieldStop(t *testing.T) {
	ctx := context.Background()
	prepared, err := Prepare(ctx, chainData(50), false)
	if err != nil {
		t.Fatal(err)
	}
	ix := match.NewIndex(prepared)
	n := 0
	st, err := StreamPreparedIndexCtx(ctx, streamQuery(), ix, Options{}, func(Single) bool {
		n++
		return n < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("yield called %d times, want 3", n)
	}
	if st.Truncated {
		t.Fatal("caller stop must not report Truncated")
	}
	if st.Matchings >= 50 {
		t.Fatalf("solver enumerated %d matchings after stop", st.Matchings)
	}
}

// TestStreamCancellation verifies that cancelling the context mid-stream
// aborts the solver: the error surfaces and the enumeration stops well
// short of the full matching space.
func TestStreamCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	prepared, err := Prepare(context.Background(), chainData(4000), false)
	if err != nil {
		t.Fatal(err)
	}
	ix := match.NewIndex(prepared)
	st, err := StreamPreparedIndexCtx(ctx, streamQuery(), ix, Options{}, func(s Single) bool {
		if s.Matching == 2 {
			cancel()
		}
		return true
	})
	if err == nil {
		t.Fatal("cancelled stream returned no error")
	}
	if st.Matchings >= 4000 {
		t.Fatalf("solver ran to completion (%d matchings) despite cancellation", st.Matchings)
	}
}

// TestStreamDeadContext verifies the fast-fail on an already-dead
// context, mirroring EvaluatePreparedIndexCtx.
func TestStreamDeadContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	prepared, err := Prepare(context.Background(), chainData(3), false)
	if err != nil {
		t.Fatal(err)
	}
	_, err = StreamPreparedIndexCtx(ctx, streamQuery(), match.NewIndex(prepared), Options{}, func(Single) bool {
		t.Fatal("yield called under a dead context")
		return false
	})
	if err == nil {
		t.Fatal("want context error")
	}
}

// TestStreamUniversePremise streams a premised query against the
// universe Universe builds for it and checks the premise-derived
// matchings arrive.
func TestStreamUniversePremise(t *testing.T) {
	ctx := context.Background()
	data := chainData(2)
	premise := graph.New(graph.T(
		term.NewIRI("urn:s:99"), term.NewIRI("urn:p"), term.NewIRI("urn:o:99")))
	q := streamQuery().WithPremise(premise)

	ix, err := Universe(ctx, q, data, false)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	st, err := StreamPreparedIndexCtx(ctx, q, ix, Options{}, func(s Single) bool {
		got[s.Binding[term.NewVar("X")].String()] = true
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Matchings != 3 {
		t.Fatalf("matchings = %d, want 3 (2 data + 1 premise)", st.Matchings)
	}
	if !got["<urn:s:99>"] {
		t.Fatalf("premise-derived binding missing; got %v", got)
	}
}

// TestStreamDedup verifies that equal single answers from distinct
// matchings are deduplicated in the stream, exactly as in Answer.Singles.
func TestStreamDedup(t *testing.T) {
	ctx := context.Background()
	// Two triples with the same subject: projecting the head onto ?X
	// alone makes both matchings instantiate the same single answer.
	g := graph.New(
		graph.T(term.NewIRI("urn:a"), term.NewIRI("urn:p"), term.NewIRI("urn:o:1")),
		graph.T(term.NewIRI("urn:a"), term.NewIRI("urn:p"), term.NewIRI("urn:o:2")),
	)
	x, y := term.NewVar("X"), term.NewVar("Y")
	q := New(
		[]graph.Triple{{S: x, P: term.NewIRI("urn:q"), O: term.NewIRI("urn:yes")}},
		[]graph.Triple{{S: x, P: term.NewIRI("urn:p"), O: y}},
	)
	prepared, err := Prepare(ctx, g, false)
	if err != nil {
		t.Fatal(err)
	}
	singles := 0
	st, err := StreamPreparedIndexCtx(ctx, q, match.NewIndex(prepared), Options{}, func(Single) bool {
		singles++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Matchings != 2 || singles != 1 || st.Singles != 1 {
		t.Fatalf("matchings=%d singles=%d st.Singles=%d, want 2/1/1", st.Matchings, singles, st.Singles)
	}
}
