package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	"semwebdb/semweb/serve"
)

// dbName is the database every workload talks to.
const dbName = "bench"

// service is the system under test: the real service tier, wired as
// cmd/semwebd wires it (serve.New + Handler on a loopback listener,
// logger nil as under -quiet, default fsync policy) but inside the
// benchmark process, so nothing can outlive the run.
type service struct {
	srv  *serve.Server
	hs   *http.Server
	done chan error
	addr string

	stopOnce sync.Once
	stopErr  error
}

// startService serves every subdirectory of root. rec, nil unless the
// run is traced, is the span recorder wrapped around the handler.
func startService(root string, rec *recorder) (*service, error) {
	srv, err := serve.New(serve.Config{Root: root})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Close()
		return nil, err
	}
	s := &service{srv: srv, hs: &http.Server{Handler: rec.wrap(srv.Handler())}, done: make(chan error, 1), addr: ln.Addr().String()}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

func (s *service) url() string { return "http://" + s.addr + "/v1/" + dbName }

// stop tears the service down in semwebd's order: drain the HTTP
// server (cutting connections that outlast the window), wait for the
// accept loop, then close the databases. It is idempotent.
func (s *service) stop() error {
	s.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		if err := s.hs.Shutdown(ctx); err != nil {
			_ = s.hs.Close()
		}
		if err := <-s.done; err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.stopErr = err
		}
		if err := s.srv.Close(); err != nil && s.stopErr == nil {
			s.stopErr = err
		}
	})
	return s.stopErr
}

// cleanup is the run's teardown stack. Normal exit, a signal and the
// -max-wall watchdog all end in run, which executes what is still on
// the stack once, newest first: services before the directories they
// write. Entries a workload has already torn down itself are dropped,
// so the stack never keeps a stopped service's memory alive.
type cleanup struct {
	mu      sync.Mutex
	entries []cleanupEntry
	done    bool
}

type cleanupEntry struct {
	key any
	fn  func() error
}

func (c *cleanup) push(key any, fn func() error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = append(c.entries, cleanupEntry{key, fn})
}

func (c *cleanup) drop(key any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := range c.entries {
		if e.key == key {
			c.entries = append(c.entries[:i], c.entries[i+1:]...)
			return
		}
	}
}

func (c *cleanup) run() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.done {
		return nil
	}
	c.done = true
	var first error
	for i := len(c.entries) - 1; i >= 0; i-- {
		if err := c.entries[i].fn(); err != nil && first == nil {
			first = err
		}
	}
	c.entries = nil
	// The replication follower dials through the default transport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return first
}

// env is what a workload needs from the process: where to put
// directories, how to register teardown, and the run's context.
type env struct {
	ctx     context.Context
	tmp     string // parent of every directory the run creates
	out     string // where traces are written
	clean   *cleanup
	clients int
	// started lists the address of every service the run started, so a
	// test can check that none still listens.
	started []string
}

// newRoot creates a fresh serve root holding an empty database
// directory, registered for removal.
func (e *env) newRoot() (string, error) {
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return "", err
	}
	root, err := os.MkdirTemp(e.tmp, "root-")
	if err != nil {
		return "", err
	}
	e.clean.push(root, func() error { return os.RemoveAll(root) })
	if err := os.Mkdir(filepath.Join(root, dbName), 0o755); err != nil {
		return "", err
	}
	return root, nil
}

// start starts a service on root and registers its teardown.
func (e *env) start(root string, rec *recorder) (*service, error) {
	s, err := startService(root, rec)
	if err != nil {
		return nil, fmt.Errorf("starting service: %w", err)
	}
	e.clean.push(s, s.stop)
	e.started = append(e.started, s.addr)
	return s, nil
}

// stop tears a service down now; remove does the same for a root.
func (e *env) stop(s *service) error {
	e.clean.drop(s)
	return s.stop()
}

func (e *env) remove(root string) error {
	e.clean.drop(root)
	return os.RemoveAll(root)
}
