package serve_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"

	"semwebdb/semweb"
	"semwebdb/semweb/serve"
)

// ntDocRange builds an N-Triples document covering [lo, hi) of the
// ntDoc id space, so successive loads insert disjoint fresh triples.
func ntDocRange(lo, hi int) string {
	var b strings.Builder
	for i := lo; i < hi; i++ {
		fmt.Fprintf(&b, "<urn:s:%d> <urn:p> <urn:o:%d> .\n", i, i)
	}
	return b.String()
}

func serveStats(t *testing.T, url, db string) semweb.Stats {
	t.Helper()
	resp, body := get(t, url+"/v1/"+db+"/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %d %s", resp.StatusCode, body)
	}
	var st semweb.Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestLoadQueryTakesDeltaPath is the end-to-end incremental
// maintenance check through the HTTP surface: after the first
// load→query warms the prepared cache, a second load must be folded in
// by a delta pass (visible in /v1/{db}/stats), not a full
// re-preparation — and the query after it must see the new triples.
func TestLoadQueryTakesDeltaPath(t *testing.T) {
	_, url := newTestServer(t, serve.Config{})

	resp, body := post(t, url+"/v1/art/load", "application/n-triples", ntDoc(50))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("load: %d %s", resp.StatusCode, body)
	}
	resp, body = post(t, url+"/v1/art/query", "text/plain", testQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d %s", resp.StatusCode, body)
	}
	if rows, trailer := decodeStream(t, body); len(rows) != 50 || trailer.Error != "" {
		t.Fatalf("warm query: rows=%d trailer=%+v", len(rows), trailer)
	}
	st := serveStats(t, url, "art")
	if st.PreparedFull != 1 || st.PreparedDelta != 0 {
		t.Fatalf("after warm query: full=%d delta=%d, want 1/0", st.PreparedFull, st.PreparedDelta)
	}

	resp, body = post(t, url+"/v1/art/load", "application/n-triples", ntDocRange(50, 60))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second load: %d %s", resp.StatusCode, body)
	}
	resp, body = post(t, url+"/v1/art/query", "text/plain", testQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("second query: %d %s", resp.StatusCode, body)
	}
	if rows, trailer := decodeStream(t, body); len(rows) != 60 || trailer.Error != "" {
		t.Fatalf("post-delta query: rows=%d trailer=%+v, want 60 rows", len(rows), trailer)
	}

	st = serveStats(t, url, "art")
	if st.PreparedDelta != 1 || st.PreparedDeltaTriples != 10 {
		t.Fatalf("delta=%d delta_triples=%d, want 1/10", st.PreparedDelta, st.PreparedDeltaTriples)
	}
	if st.PreparedFull != 1 {
		t.Fatalf("full=%d after delta load, want still 1", st.PreparedFull)
	}

	// The raw stats JSON carries the snake_case counter keys the
	// rdfcheck CLI and dashboards key on.
	_, body = get(t, url+"/v1/art/stats")
	for _, key := range []string{`"prepared_full":1`, `"prepared_delta":1`, `"prepared_delta_triples":10`} {
		if !strings.Contains(body, key) {
			t.Fatalf("stats JSON missing %s: %s", key, body)
		}
	}
}

// TestConcurrentLoadAndStream interleaves load traffic with streaming
// queries over one database — every request must succeed and every
// stream must end with a clean trailer, under the race detector via
// `make test-race`.
func TestConcurrentLoadAndStream(t *testing.T) {
	_, url := newTestServer(t, serve.Config{})
	post(t, url+"/v1/art/load", "application/n-triples", ntDoc(30))
	post(t, url+"/v1/art/query", "text/plain", testQuery) // warm the cache

	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				lo := 1000*(w+1) + 10*i
				resp, err := http.Post(url+"/v1/art/load", "application/n-triples",
					strings.NewReader(ntDocRange(lo, lo+10)))
				if err != nil {
					errs <- err
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("load: status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				resp, err := http.Post(url+"/v1/art/query", "text/plain", strings.NewReader(testQuery))
				if err != nil {
					errs <- err
					return
				}
				if resp.StatusCode != http.StatusOK {
					resp.Body.Close()
					errs <- fmt.Errorf("query: status %d", resp.StatusCode)
					return
				}
				sc := json.NewDecoder(resp.Body)
				for sc.More() {
					var probe struct {
						Done  bool   `json:"done"`
						Error string `json:"error"`
					}
					if err := sc.Decode(&probe); err != nil {
						resp.Body.Close()
						errs <- fmt.Errorf("stream decode: %w", err)
						return
					}
					if probe.Done && probe.Error != "" {
						resp.Body.Close()
						errs <- fmt.Errorf("stream trailer error: %s", probe.Error)
						return
					}
				}
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// All 30 + 3×8×10 distinct triples are served once traffic stops.
	_, body := post(t, url+"/v1/art/query", "text/plain", testQuery)
	if rows, trailer := decodeStream(t, body); len(rows) != 270 || trailer.Error != "" {
		t.Fatalf("final query: rows=%d trailer=%+v, want 270", len(rows), trailer)
	}
	if st := serveStats(t, url, "art"); st.PreparedDelta == 0 {
		t.Fatal("no load was folded in incrementally under concurrent traffic")
	}
}
