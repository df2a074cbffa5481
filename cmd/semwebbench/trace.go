package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval of a traced run. Spans of one operation
// share Op; Parent is the ID of the span that caused this one (0 for a
// root). Times are nanoseconds since the recorder was created.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     string `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs share the call sites.
type recorder struct {
	t0 time.Time
	on atomic.Bool

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) add(name, op string, parent int, start time.Time, d time.Duration) int {
	if r == nil || !r.on.Load() {
		return 0
	}
	s0 := start.Sub(r.t0).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: s0, End: s0 + d.Nanoseconds()})
	return id
}

// time runs fn inside a span and hands it the span's ID, so fn's own
// spans can name it as parent.
func (r *recorder) time(name, op string, parent int, fn func(id int)) {
	// The ID is reserved up front so children recorded inside fn can
	// point at it; the interval is filled in afterwards.
	id := r.add(name, op, parent, time.Now(), 0)
	start := time.Now()
	fn(id)
	d := time.Since(start)
	if id > 0 {
		r.mu.Lock()
		r.spans[id-1].Start = start.Sub(r.t0).Nanoseconds()
		r.spans[id-1].End = r.spans[id-1].Start + d.Nanoseconds()
		r.mu.Unlock()
	}
}

// wrap is the span-recording wrapper around srv.Handler(): one
// serve.handler_<route> span per request, carrying the client's
// X-Request-Id as its op. A nil recorder leaves the handler as it is.
func (r *recorder) wrap(h http.Handler) http.Handler {
	if r == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if !r.on.Load() {
			h.ServeHTTP(w, req)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, req)
		route := req.URL.Path[strings.LastIndexByte(req.URL.Path, '/')+1:]
		r.add("serve.handler_"+route, req.Header.Get("X-Request-Id"), 0, start, time.Since(start))
	})
}

// snapshot returns the spans recorded so far, handler spans re-parented
// under the client span of the same request.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	out := append([]span(nil), r.spans...)
	r.mu.Unlock()
	client := map[string]int{}
	for _, s := range out {
		if strings.HasPrefix(s.Name, "client.") {
			client[s.Op] = s.ID
		}
	}
	for i, s := range out {
		if strings.HasPrefix(s.Name, "serve.handler_") {
			out[i].Parent = client[s.Op]
		}
	}
	return out
}

// byName groups span durations.
func byName(spans []span) map[string]durations {
	m := map[string]durations{}
	for _, s := range spans {
		m[s.Name] = append(m[s.Name], s.dur())
	}
	return m
}

// selfTimes returns, per span, its duration minus the part its child
// spans cover (children of one replay span never overlap).
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, spans})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// promSamples reads the /metrics exposition into name{labels} → value.
func promSamples(text string) map[string]float64 {
	m := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// promDelta sums, over every series of the family whose label set
// contains match, the growth from before to after.
func promDelta(before, after map[string]float64, family, match string) float64 {
	var d float64
	for k, v := range after {
		name, labels, _ := strings.Cut(k, "{")
		if name == family && strings.Contains(labels, match) {
			d += v - before[k]
		}
	}
	return d
}
