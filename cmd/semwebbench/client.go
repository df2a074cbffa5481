package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"semwebdb/semweb"
	"semwebdb/semweb/serve"
)

// client is one closed-loop caller on one keep-alive connection.
type client struct {
	hc   *http.Client
	base string // http://host:port/v1/<db>
	name string // request-id prefix
	seq  int
	rec  *recorder // nil unless traced
	br   *bufio.Reader
}

func newClient(base, name string, rec *recorder) *client {
	tr := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr}, base: base, name: name, rec: rec, br: bufio.NewReaderSize(nil, 64<<10)}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request. The returned id is the X-Request-Id the
// traced handler span is joined on.
func (c *client) do(ctx context.Context, method, path, ctype string, body string) (*http.Response, string, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, strings.NewReader(body))
	if err != nil {
		return nil, "", err
	}
	c.seq++
	id := c.name + "-" + strconv.Itoa(c.seq)
	req.Header.Set("X-Request-Id", id)
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := c.hc.Do(req)
	return resp, id, err
}

// answer is what one /query response turned out to be.
type answer struct {
	rows    int
	trailer serve.Trailer
	ttfr    time.Duration // send to first NDJSON line
	total   time.Duration // send to trailer read
	// bindings holds every row's bindings when the caller asked for
	// them (the sampled full check), nil otherwise.
	bindings []map[string]string
}

var rowPrefix = []byte(`{"triples"`)

// query posts op and reads the NDJSON stream to its trailer. Any
// deviation from "2xx, rows, then exactly one clean done trailer whose
// row count matches" is an error; whether the count is the expected
// one is the caller's check.
func (c *client) query(ctx context.Context, op queryOp, keepRows bool) (answer, error) {
	var a answer
	path := "/query"
	if op.limit > 0 {
		path += "?limit=" + strconv.Itoa(op.limit)
	}
	start := time.Now()
	resp, id, err := c.do(ctx, http.MethodPost, path, "", op.text)
	if err != nil {
		return a, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return a, fmt.Errorf("query: status %d: %s", resp.StatusCode, bytes.TrimSpace(msg))
	}
	c.br.Reset(resp.Body)
	var last []byte
	trailers := 0
	for {
		line, err := c.br.ReadSlice('\n')
		if len(line) > 0 {
			if a.ttfr == 0 {
				a.ttfr = time.Since(start)
			}
			if bytes.HasPrefix(line, rowPrefix) {
				a.rows++
				if keepRows {
					var row serve.RowMessage
					if err := json.Unmarshal(line, &row); err != nil {
						return a, fmt.Errorf("query: bad row: %w", err)
					}
					a.bindings = append(a.bindings, row.Bindings)
				}
			} else {
				trailers++
				last = append(last[:0], line...)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return a, fmt.Errorf("query: reading stream: %w", err)
		}
	}
	a.total = time.Since(start)
	c.rec.add("client.query", id, 0, start, a.total)
	if trailers != 1 {
		return a, fmt.Errorf("query: %d trailer lines", trailers)
	}
	if err := json.Unmarshal(last, &a.trailer); err != nil {
		return a, fmt.Errorf("query: bad trailer: %w", err)
	}
	switch {
	case !a.trailer.Done:
		return a, fmt.Errorf("query: last line is not a done trailer")
	case a.trailer.Error != "":
		return a, fmt.Errorf("query: trailer error: %s", a.trailer.Error)
	case a.trailer.Rows != a.rows:
		return a, fmt.Errorf("query: trailer says %d rows, stream had %d", a.trailer.Rows, a.rows)
	}
	return a, nil
}

// expect runs op and checks the answer against the model's count, and
// row by row when full is set; keep retains the rows' bindings for a
// check of the caller's own.
func (c *client) expect(ctx context.Context, m *model, op queryOp, full, keep bool) (answer, error) {
	a, err := c.query(ctx, op, full || keep)
	if err != nil {
		return a, err
	}
	if a.rows != op.want {
		return a, fmt.Errorf("%s: %d rows, model expects %d", op.shape, a.rows, op.want)
	}
	if full {
		if err := m.checkRows(op, a.bindings); err != nil {
			return a, fmt.Errorf("%s: %w", op.shape, err)
		}
	}
	return a, nil
}

// postJSON sends a non-streaming request and decodes its 2xx body.
func (c *client) postJSON(ctx context.Context, method, path, body string, span string, into any) (time.Duration, error) {
	start := time.Now()
	resp, id, err := c.do(ctx, method, path, "application/n-triples", body)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	d := time.Since(start)
	c.rec.add(span, id, 0, start, d)
	if err != nil {
		return d, err
	}
	if resp.StatusCode/100 != 2 {
		return d, fmt.Errorf("%s: status %d: %s", path, resp.StatusCode, bytes.TrimSpace(data))
	}
	return d, json.Unmarshal(data, into)
}

// load posts an N-Triples body and returns how many triples it added.
func (c *client) load(ctx context.Context, body string) (int, time.Duration, error) {
	var res struct {
		Added int `json:"added"`
	}
	d, err := c.postJSON(ctx, http.MethodPost, "/load", body, "client.load", &res)
	return res.Added, d, err
}

func (c *client) snapshot(ctx context.Context) (semweb.Stats, time.Duration, error) {
	var st semweb.Stats
	d, err := c.postJSON(ctx, http.MethodPost, "/snapshot", "", "client.snapshot", &st)
	return st, d, err
}

func (c *client) stats(ctx context.Context) (semweb.Stats, time.Duration, error) {
	var st semweb.Stats
	d, err := c.postJSON(ctx, http.MethodGet, "/stats", "", "client.stats", &st)
	return st, d, err
}

// metricsText scrapes the Prometheus exposition (traced runs diff it).
func (c *client) metricsText(ctx context.Context) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, strings.TrimSuffix(c.base, "/v1/"+dbName)+"/metrics", nil)
	if err != nil {
		return "", err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return string(data), err
}
