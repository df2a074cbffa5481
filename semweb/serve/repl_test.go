package serve_test

// Replication through the real HTTP stack: a follower Server dials a
// leader Server's /repl endpoints exactly like a production semwebd
// -follow does. The CI race job (`make test-race`) runs this file under
// -race, with concurrent leader loads against replica queries.

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"semwebdb/semweb"
	"semwebdb/semweb/serve"
)

// newFollowerServer builds a Server following the leader at leaderURL,
// serving one database named "art" from a fresh mirror directory.
func newFollowerServer(t *testing.T, leaderURL string) (*serve.Server, string) {
	t.Helper()
	return newTestServer(t, serve.Config{
		Mounts: map[string]string{"art": filepath.Join(t.TempDir(), "art")},
		Follow: leaderURL,
	})
}

// replState fetches and decodes GET /v1/art/repl/state.
func replState(t *testing.T, base string) semweb.ReplState {
	t.Helper()
	resp, body := get(t, base+"/v1/art/repl/state")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("repl/state: %d: %s", resp.StatusCode, body)
	}
	var st semweb.ReplState
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("repl/state decode: %v in %q", err, body)
	}
	return st
}

// waitFollower polls both servers' repl states until the follower has
// mirrored the leader's entire durable log.
func waitFollower(t *testing.T, followerURL, leaderURL string) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		ls := replState(t, leaderURL)
		fs := replState(t, followerURL)
		if fs.LeaderGeneration == ls.Generation && fs.AppliedBytes == ls.WALSize && fs.AppliedRecords == ls.WALRecords {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("follower never converged: follower %+v, leader %+v", fs, ls)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServeFollower is the HTTP end-to-end: load on the leader, watch
// the data appear on the follower, query it there, and check the
// follower's write surface answers 503 while its read surface works.
func TestServeFollower(t *testing.T) {
	_, leaderURL := newTestServer(t, serve.Config{})
	_, followerURL := newFollowerServer(t, leaderURL)

	resp, body := post(t, leaderURL+"/v1/art/load", "application/n-triples", ntDoc(8))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("leader load: %d: %s", resp.StatusCode, body)
	}
	waitFollower(t, followerURL, leaderURL)

	// The replica answers queries over the replicated data.
	resp, body = post(t, followerURL+"/v1/art/query", "text/plain", testQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replica query: %d: %s", resp.StatusCode, body)
	}
	rows, trailer := decodeStream(t, body)
	if len(rows) != 8 || trailer.Rows != 8 {
		t.Fatalf("replica answered %d rows (trailer %d), want 8", len(rows), trailer.Rows)
	}

	// Stats on the follower reports the replica role and its offsets.
	resp, body = get(t, followerURL+"/v1/art/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replica stats: %d: %s", resp.StatusCode, body)
	}
	var st semweb.Stats
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatal(err)
	}
	if !st.Replica || st.Triples != 8 || st.ReplAppliedBytes == 0 || st.ReplLagBytes != 0 {
		t.Fatalf("replica stats wrong: %+v", st)
	}

	// Writes are refused with 503 (retryable elsewhere), reads still work.
	resp, body = post(t, followerURL+"/v1/art/load", "application/n-triples", ntDoc(1))
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("replica load: %d (%s), want 503", resp.StatusCode, body)
	}
	for _, admin := range []string{"snapshot", "compact"} {
		resp, body = post(t, followerURL+"/v1/art/"+admin, "", "")
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("replica %s: %d (%s), want 503", admin, resp.StatusCode, body)
		}
	}

	// The leader's repl/state says leader; the follower's says replica.
	if ls := replState(t, leaderURL); ls.Replica || ls.Generation == 0 {
		t.Fatalf("leader repl/state wrong: %+v", ls)
	}
	if fs := replState(t, followerURL); !fs.Replica || fs.Bootstraps == 0 {
		t.Fatalf("follower repl/state wrong: %+v", fs)
	}
}

// TestServeFollowerLiveTail: batches loaded while the follower is
// connected stream through the long-poll tail, and concurrent replica
// queries run against consistent snapshots throughout (the -race leg's
// main course).
func TestServeFollowerLiveTail(t *testing.T) {
	_, leaderURL := newTestServer(t, serve.Config{})
	_, followerURL := newFollowerServer(t, leaderURL)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			resp, body := post(t, followerURL+"/v1/art/query", "text/plain", testQuery)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("replica query under load: %d: %s", resp.StatusCode, body)
				return
			}
			rows, trailer := decodeStream(t, body)
			if len(rows) != trailer.Rows {
				t.Errorf("torn replica answer: %d rows, trailer says %d", len(rows), trailer.Rows)
				return
			}
		}
	}()

	for batch := 0; batch < 5; batch++ {
		resp, body := post(t, leaderURL+"/v1/art/load", "application/n-triples", ntDoc(4*(batch+1)))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("leader load %d: %d: %s", batch, resp.StatusCode, body)
		}
	}
	waitFollower(t, followerURL, leaderURL)
	close(stop)
	wg.Wait()

	resp, body := post(t, followerURL+"/v1/art/query", "text/plain", testQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final replica query: %d: %s", resp.StatusCode, body)
	}
	rows, _ := decodeStream(t, body)
	if len(rows) != 20 {
		t.Fatalf("replica answered %d rows, want 20", len(rows))
	}
}

// TestServeFollowerRestart: the follower server restarts over its
// existing mirror directory and resumes from local state (even though
// data arrived at the leader while it was down), converging without a
// fresh bootstrap.
func TestServeFollowerRestart(t *testing.T) {
	_, leaderURL := newTestServer(t, serve.Config{})
	mirror := filepath.Join(t.TempDir(), "art")

	f1, err := serve.New(serve.Config{
		Mounts:  map[string]string{"art": mirror},
		Follow:  leaderURL,
		Options: []semweb.Option{semweb.WithoutFsync()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f1.DB("art"); err != nil { // force the bootstrap
		t.Fatal(err)
	}
	post(t, leaderURL+"/v1/art/load", "application/n-triples", ntDoc(5))
	if err := f1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(mirror, "repl.json")); err != nil {
		t.Fatalf("mirror has no repl marker after first run: %v", err)
	}

	post(t, leaderURL+"/v1/art/load", "application/n-triples", ntDoc(9)) // while down

	_, followerURL := newTestServer(t, serve.Config{
		Mounts: map[string]string{"art": mirror},
		Follow: leaderURL,
	})
	waitFollower(t, followerURL, leaderURL)
	resp, body := post(t, followerURL+"/v1/art/query", "text/plain", testQuery)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replica query after restart: %d: %s", resp.StatusCode, body)
	}
	rows, _ := decodeStream(t, body)
	if len(rows) != 9 {
		t.Fatalf("replica answered %d rows after restart, want 9", len(rows))
	}
}

// TestReplEndpointsValidation: parameter and error mapping on the repl
// endpoints — bad params are 400, wrong generations 409, and an
// in-memory database has no log to follow (409 via ErrNotPersistent).
func TestReplEndpointsValidation(t *testing.T) {
	_, url := newTestServer(t, serve.Config{})
	post(t, url+"/v1/art/load", "application/n-triples", ntDoc(2))

	st := replState(t, url)

	for _, bad := range []string{
		"/v1/art/repl/snapshot",                  // missing gen
		"/v1/art/repl/snapshot?gen=x",            // junk gen
		"/v1/art/repl/wal?gen=1&from=-2",         // negative from
		"/v1/art/repl/wal?gen=1&from=0&max=0",    // non-positive max
		"/v1/art/repl/wal?gen=1&from=0&wait=-3s", // negative wait
	} {
		resp, _ := get(t, url+bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", bad, resp.StatusCode)
		}
	}

	// Wrong generation: 409 on both tail and snapshot.
	resp, _ := get(t, url+"/v1/art/repl/wal?gen=12345&from=0")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("wrong-generation tail: %d, want 409", resp.StatusCode)
	}
	resp, _ = get(t, url+"/v1/art/repl/snapshot?gen=12345")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("wrong-generation snapshot: %d, want 409", resp.StatusCode)
	}

	// An offset beyond the durable log is a generation-level refusal
	// too: within one generation the log only grows.
	resp, _ = get(t, url+"/v1/art/repl/wal?gen="+uitoa(st.Generation)+"&from=1000000")
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("overlong offset: %d, want 409", resp.StatusCode)
	}
}

// uitoa formats a generation for a query string.
func uitoa(v uint64) string {
	b, _ := json.Marshal(v)
	return string(b)
}
