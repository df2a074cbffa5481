package semweb

// Consistency tests for the engine metrics: the path-labeled query
// histogram agrees with the Stats prepared counters, histogram time
// never exceeds wall time over a serial section, and the process-global
// registry stays valid and monotone under concurrent load + stream +
// snapshot traffic (`make test-race` runs this file under -race).

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"semwebdb/internal/obs"
)

func mustParseQuery(t *testing.T, text string) *Query {
	t.Helper()
	q, err := ParseQuery(text)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

const metricsTestQuery = "HEAD:\n?X <urn:q> ?Y .\nBODY:\n?X <urn:p> ?Y .\n"

func addTriples(t *testing.T, db *DB, n, base int) {
	t.Helper()
	ts := make([]Triple, n)
	for i := range ts {
		ts[i] = T(IRI(fmt.Sprintf("urn:s:%d", base+i)), IRI("urn:p"), IRI(fmt.Sprintf("urn:o:%d", base+i)))
	}
	if err := db.Add(ts...); err != nil {
		t.Fatal(err)
	}
}

// TestQueryMetricsPathsMatchStats drives the three premise-free
// resolution paths in order — full prepare, cached hit, delta
// maintenance — and checks that the path-labeled histogram children and
// the Stats prepared counters tell the same story, that the row counter
// advances by exactly the rows returned, and that the histogram time
// observed over this serial section is bounded by its wall time.
func TestQueryMetricsPathsMatchStats(t *testing.T) {
	db, err := Open()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	addTriples(t, db, 8, 0)

	fullBefore := querySecondsFull.Count()
	cachedBefore := querySecondsCached.Count()
	deltaBefore := querySecondsDelta.Count()
	rowsBefore := queryRows.Value()
	sumBefore := querySecondsFull.Sum() + querySecondsCached.Sum() + querySecondsDelta.Sum()

	ctx := context.Background()
	t0 := time.Now()
	rows := 0
	for i := 0; i < 2; i++ { // first: full prepare; second: cached hit
		ans, err := db.Eval(ctx, mustParseQuery(t, metricsTestQuery))
		if err != nil {
			t.Fatal(err)
		}
		rows += len(ans.Singles())
	}
	addTriples(t, db, 4, 100) // queues a pending batch for delta maintenance
	ans, err := db.Eval(ctx, mustParseQuery(t, metricsTestQuery))
	if err != nil {
		t.Fatal(err)
	}
	rows += len(ans.Singles())
	wall := time.Since(t0)

	if got := querySecondsFull.Count() - fullBefore; got != 1 {
		t.Errorf("full-path observations = %d, want 1", got)
	}
	if got := querySecondsCached.Count() - cachedBefore; got != 1 {
		t.Errorf("cached-path observations = %d, want 1", got)
	}
	if got := querySecondsDelta.Count() - deltaBefore; got != 1 {
		t.Errorf("delta-path observations = %d, want 1", got)
	}
	if got := queryRows.Value() - rowsBefore; got != uint64(rows) {
		t.Errorf("semweb_query_rows_total advanced by %d, want %d", got, rows)
	}
	st := db.Stats()
	if st.PreparedFull != 1 || st.PreparedDelta != 1 {
		t.Errorf("Stats prepared counters = full %d, delta %d; want 1, 1", st.PreparedFull, st.PreparedDelta)
	}
	// This goroutine ran the queries serially, but other test goroutines
	// (package tests run sequentially; -race may interleave cleanups)
	// could contribute observations — the bound still holds because any
	// observation's duration is contained in some caller's wall time and
	// this section is the only query traffic in the package at this
	// point.
	if d := (querySecondsFull.Sum() + querySecondsCached.Sum() + querySecondsDelta.Sum()) - sumBefore; d > wall {
		t.Errorf("query histogram time %v exceeds wall time %v", d, wall)
	}
}

// TestMetricsConcurrentConsistency hammers one durable database with
// concurrent loads, streams and snapshots, then checks the registry
// still renders a valid exposition and that every counter sample moved
// monotonically. Run under -race this also proves the instrumentation
// introduces no data races on the engine seams.
func TestMetricsConcurrentConsistency(t *testing.T) {
	db, err := OpenAt(t.TempDir(), WithoutFsync())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	addTriples(t, db, 16, 0)

	before := scrapeSamples(t)

	const iters = 8
	var wg sync.WaitGroup
	wg.Add(3)
	go func() { // loader
		defer wg.Done()
		for i := 0; i < iters; i++ {
			addTriples(t, db, 4, 1000+16*i)
		}
	}()
	go func() { // streamer
		defer wg.Done()
		for i := 0; i < iters; i++ {
			rows, err := db.Stream(context.Background(), mustParseQuery(t, metricsTestQuery))
			if err != nil {
				t.Error(err)
				return
			}
			for rows.Next() {
			}
			if err := rows.Close(); err != nil {
				t.Error(err)
			}
		}
	}()
	go func() { // snapshotter
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := db.Snapshot(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()

	after := scrapeSamples(t)
	for name, v := range before {
		if !strings.Contains(name, "_total") && !strings.Contains(name, "_count") &&
			!strings.Contains(name, "_sum") && !strings.Contains(name, "_bucket") {
			continue // gauges may go either way
		}
		nv, ok := after[name]
		if !ok {
			t.Errorf("counter sample %s disappeared", name)
			continue
		}
		if nv < v {
			t.Errorf("counter sample %s went backwards: %g -> %g", name, v, nv)
		}
	}
	for _, want := range []string{
		"semweb_query_seconds_count",
		"semweb_query_rows_total",
		"semweb_wal_appends_total",
		"semweb_snapshot_writes_total",
		"semweb_closure_saturations_total",
		"semweb_dict_interns_total",
	} {
		if !sampleFamilyGrew(before, after, want) {
			t.Errorf("no sample of %s advanced during the workload", want)
		}
	}
}

// scrapeSamples renders the process-global registry, validates the
// exposition, and returns every sample line as name{labels} -> value.
func scrapeSamples(t *testing.T) map[string]float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := obs.Default.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("invalid exposition: %v", err)
	}
	samples := make(map[string]float64)
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err != nil {
			t.Fatalf("bad sample line %q: %v", line, err)
		}
		samples[line[:i]] = v
	}
	return samples
}

// sampleFamilyGrew reports whether any sample with the given prefix
// increased from before to after (or appeared with a nonzero value).
func sampleFamilyGrew(before, after map[string]float64, prefix string) bool {
	for name, nv := range after {
		if !strings.HasPrefix(name, prefix) {
			continue
		}
		if nv > before[name] {
			return true
		}
	}
	return false
}
