package persist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
)

// File names inside a database directory.
const (
	// SnapshotFile is the current binary snapshot.
	SnapshotFile = "snapshot.swdb"
	// WALFile is the sidecar write-ahead log.
	WALFile = "wal.swdb"
	// snapshotTmp is the in-progress snapshot; renamed over SnapshotFile
	// once fully written and synced, so a crash mid-write never damages
	// the current snapshot.
	snapshotTmp = "snapshot.swdb.tmp"
)

// Options configures an Engine.
type Options struct {
	// CompactThreshold is the WAL payload size (bytes past the header)
	// above which Open compacts: it writes a fresh snapshot covering the
	// replayed state and truncates the log. Zero means DefaultCompactThreshold;
	// negative disables compaction on open.
	CompactThreshold int64
	// NoSync disables fsync on WAL batches and snapshot writes. Crash
	// durability is lost; intended for benchmarks and bulk imports that
	// checkpoint explicitly.
	NoSync bool
}

// DefaultCompactThreshold is the default WAL size that triggers
// compaction on open.
const DefaultCompactThreshold = 64 << 20

// Engine manages the on-disk state of one database directory: the
// snapshot file, the WAL, and the compaction that folds the latter
// into the former. The owning database serializes mutations (Append,
// Compact, Close); the stats accessors are safe to call concurrently
// with them.
type Engine struct {
	dir  string
	opts Options
	// applier decodes AppendFrames' records; like the log it feeds, it
	// is touched only by the owner's serialized mutations.
	applier *applier

	mu        sync.Mutex // guards the fields below against Stats readers
	wal       *WAL       // guarded by mu
	snapBytes int64      // guarded by mu
	closed    bool       // guarded by mu
	// gen is the current WAL generation token (see TailState.Gen);
	// tailCh is closed and replaced whenever the tail state changes, to
	// wake WaitTail callers.
	gen    uint64        // guarded by mu
	tailCh chan struct{} // guarded by mu
}

// Open opens (creating if needed) the database directory and returns
// the engine together with the recovered dictionary and graph: the
// snapshot decoded (permutations installed, IDs dense and stable) and
// the WAL's valid prefix replayed on top. When the surviving WAL
// exceeds the compaction threshold, the state is folded into a fresh
// snapshot and the log truncated before returning.
func Open(dir string, opts Options) (*Engine, *dict.Dict, *graph.Graph, error) {
	if opts.CompactThreshold == 0 {
		opts.CompactThreshold = DefaultCompactThreshold
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, nil, err
	}
	e := &Engine{dir: dir, opts: opts, gen: newGeneration(), tailCh: make(chan struct{})}
	d, g, snapBytes, err := recoverState(dir, func(d *dict.Dict, g *graph.Graph) (err error) {
		e.wal, err = OpenWAL(filepath.Join(dir, WALFile), d, g, !opts.NoSync)
		return err
	})
	if err != nil {
		return nil, nil, nil, err
	}
	e.snapBytes = snapBytes

	if opts.CompactThreshold > 0 && e.wal.Size()-walHeaderSize > opts.CompactThreshold {
		if err := e.Compact(g); err != nil {
			e.wal.Close()
			return nil, nil, nil, err
		}
	}
	return e, d, g, nil
}

// OpenReadOnly recovers the state of a database directory without
// touching it: the snapshot is decoded, the WAL's valid prefix is
// replayed in memory, and nothing is created, locked, truncated or
// compacted — safe to run against a directory another process is
// actively writing, and on read-only media. It fails if the directory
// does not exist or holds no database.
//
// Because the snapshot and WAL are read without coordination, a
// compaction racing between the two reads can pair an old snapshot
// with a new WAL generation; that transient mismatch looks like
// corruption, so ErrCorrupt results are retried with fresh reads a few
// times before being believed.
func OpenReadOnly(dir string) (*dict.Dict, *graph.Graph, Stats, error) {
	var (
		d   *dict.Dict
		g   *graph.Graph
		st  Stats
		err error
	)
	for attempt := 0; ; attempt++ {
		d, g, st, err = openReadOnlyOnce(dir)
		if err == nil || !errors.Is(err, ErrCorrupt) || attempt == 3 {
			return d, g, st, err
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func openReadOnlyOnce(dir string) (*dict.Dict, *graph.Graph, Stats, error) {
	var stats Stats
	if fi, err := os.Stat(dir); err != nil {
		return nil, nil, stats, err
	} else if !fi.IsDir() {
		return nil, nil, stats, fmt.Errorf("persist: %s is not a directory", dir)
	}
	haveWAL := false
	d, g, snapBytes, err := recoverState(dir, func(d *dict.Dict, g *graph.Graph) error {
		walPath := filepath.Join(dir, WALFile)
		f, err := os.Open(walPath)
		if os.IsNotExist(err) {
			return nil
		} else if err != nil {
			return err
		}
		defer f.Close()
		haveWAL = true
		st, err := f.Stat()
		if err != nil || st.Size() < walHeaderSize {
			return err
		}
		res, err := ReplayWAL(f, d, g)
		if err != nil {
			return fmt.Errorf("%s: %w", walPath, err)
		}
		stats.WALBytes = res.Valid - walHeaderSize
		stats.WALRecords = res.Records
		return nil
	})
	if err != nil {
		return nil, nil, stats, err
	}
	// A snapshot that decoded is never empty, so zero bytes means none.
	if snapBytes == 0 && !haveWAL {
		return nil, nil, stats, fmt.Errorf("persist: %s holds no database (no %s or %s)", dir, SnapshotFile, WALFile)
	}
	stats.SnapshotBytes = snapBytes
	return d, g, stats, nil
}

// recoverState is the recovery step Open and OpenReadOnly share: it
// decodes dir's snapshot — an empty state when there is none — and
// hands the state to replayWAL, which replays the log beside it (each
// opener opens the log its own way). It returns the recovered state
// and the snapshot's size in bytes (0 when there is none).
func recoverState(dir string, replayWAL func(*dict.Dict, *graph.Graph) error) (*dict.Dict, *graph.Graph, int64, error) {
	var (
		d         *dict.Dict
		g         *graph.Graph
		snapBytes int64
	)
	snapPath := filepath.Join(dir, SnapshotFile)
	f, err := os.Open(snapPath)
	switch {
	case err == nil:
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, nil, 0, err
		}
		t0 := time.Now()
		d, g, err = ReadSnapshot(bufio.NewReaderSize(f, 1<<20))
		f.Close()
		if err != nil {
			return nil, nil, 0, fmt.Errorf("%s: %w", snapPath, err)
		}
		snapshotOpenSeconds.ObserveSince(t0)
		snapBytes = st.Size()
	case os.IsNotExist(err):
		d = dict.New()
		g = graph.NewWithDict(d)
	default:
		return nil, nil, 0, err
	}
	if err := replayWAL(d, g); err != nil {
		return nil, nil, 0, err
	}
	return d, g, snapBytes, nil
}

// Append logs a batch of freshly added triples. The caller passes the
// dictionary the IDs live in; terms not yet durable are inlined ahead
// of the triples referencing them.
func (e *Engine) Append(d *dict.Dict, triples []dict.Triple3) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("persist: engine is closed")
	}
	if err := e.wal.Append(d, triples); err != nil {
		return err
	}
	e.notifyTailLocked()
	return nil
}

// Compact checkpoints the given state: it writes a fresh snapshot
// beside the current one, atomically renames it into place, and
// truncates the WAL into a new generation. A crash before the rename
// leaves the old snapshot + full WAL; a crash after it leaves the new
// snapshot + a stale WAL whose replay is idempotent — either way,
// reopening recovers exactly the state passed here or a superset from
// later appends.
func (e *Engine) Compact(g *graph.Graph) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("persist: engine is closed")
	}
	return e.checkpointLocked(g)
}

func (e *Engine) checkpointLocked(g *graph.Graph) error {
	n, persistedTerms, err := e.writeSnapshotTmp(g)
	if err != nil {
		return err
	}
	if err := e.renameSnapshotLocked(n); err != nil {
		return err
	}
	// The new WAL generation's base is the term count the snapshot
	// actually persisted — NOT the dictionary's current length, which a
	// concurrent query may have grown past the persisted prefix since
	// the write (the shared dictionary interns lock-free outside any
	// database lock). A base beyond the persisted terms would make
	// every future open fail its base-vs-dictionary check.
	if err := e.wal.Reset(dict.ID(persistedTerms)); err != nil {
		return err
	}
	// The log was truncated: offsets from the old generation are void.
	e.gen = newGeneration()
	e.notifyTailLocked()
	return nil
}

// writeSnapshotTmp writes and syncs the snapshot of g to the tmp file
// without renaming it into place.
func (e *Engine) writeSnapshotTmp(g *graph.Graph) (int64, int, error) {
	tmp := filepath.Join(e.dir, snapshotTmp)
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	n, persistedTerms, err := writeSnapshotSynced(f, g, !e.opts.NoSync)
	if err != nil {
		f.Close()
		os.Remove(tmp)
		return 0, 0, err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return 0, 0, err
	}
	snapshotWrites.Inc()
	snapshotWriteSeconds.ObserveSince(t0)
	return n, persistedTerms, nil
}

// renameSnapshotLocked atomically installs the previously written tmp
// snapshot of size n as the current one. Callers hold e.mu and have
// already written and synced the tmp file via writeSnapshotTmp.
func (e *Engine) renameSnapshotLocked(n int64) error {
	tmp := filepath.Join(e.dir, snapshotTmp)
	//lint:ignore fsyncrename the tmp file is written and synced by writeSnapshotTmp in every caller before this rename
	if err := os.Rename(tmp, filepath.Join(e.dir, SnapshotFile)); err != nil {
		os.Remove(tmp)
		return err
	}
	if !e.opts.NoSync {
		if err := syncDir(e.dir); err != nil {
			return err
		}
	}
	e.snapBytes = n
	return nil
}

// Swap replaces the durable state with a rewritten representation of
// the same triple set under a new dictionary — the epoch-compaction
// checkpoint: rewritten is cur rebuilt over a dense dictionary
// (graph.Compacted), so their IDs disagree and their term sets may
// differ.
//
// A WAL record references IDs of the dictionary its snapshot was
// written with; once the rewritten snapshot is in place, records from
// the old generation would replay into wrong triples. The sequence
// therefore keeps the log empty across the snapshot switch:
//
//  1. If the WAL holds records, checkpoint cur first (ordinary
//     Compact): the old-dictionary snapshot then covers everything and
//     the log is empty.
//  2. Write and sync the rewritten snapshot to the tmp file.
//  3. Reset the WAL to an empty generation based at the rewritten
//     dictionary's size — before the rename, so the on-disk pair is
//     never (rewritten snapshot, old-generation log).
//  4. Atomically rename the rewritten snapshot into place.
//
// A crash between any two steps recovers consistently: before 3 the
// old snapshot + empty log reproduce the full state; between 3 and 4
// the old snapshot decodes a dictionary at least as large as the new
// base, and the empty log adds nothing; after 4 the rewritten snapshot
// and its matching generation are exactly the compacted state.
func (e *Engine) Swap(cur, rewritten *graph.Graph) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return fmt.Errorf("persist: engine is closed")
	}
	if e.wal.Records() > 0 {
		if err := e.checkpointLocked(cur); err != nil {
			return err
		}
	}
	n, persistedTerms, err := e.writeSnapshotTmp(rewritten)
	if err != nil {
		return err
	}
	if err := e.wal.Reset(dict.ID(persistedTerms)); err != nil {
		os.Remove(filepath.Join(e.dir, snapshotTmp))
		return err
	}
	e.gen = newGeneration()
	e.notifyTailLocked()
	if err := e.renameSnapshotLocked(n); err != nil {
		return err
	}
	snapshotSwaps.Inc()
	return nil
}

func writeSnapshotSynced(f *os.File, g *graph.Graph, sync bool) (int64, int, error) {
	bw := bufio.NewWriterSize(f, 1<<20)
	n, persistedTerms, err := WriteSnapshot(bw, g)
	if err != nil {
		return n, persistedTerms, err
	}
	if err := bw.Flush(); err != nil {
		return n, persistedTerms, err
	}
	if sync {
		if err := f.Sync(); err != nil {
			return n, persistedTerms, err
		}
	}
	return n, persistedTerms, nil
}

// installFile atomically replaces dir/name with the bytes write
// produces: a tmp file beside it, fsynced, renamed into place, and the
// directory fsynced (the fsyncs only when sync is set). On failure the
// tmp file is removed and dir/name is untouched.
func installFile(dir, name string, write func(io.Writer) error, sync bool) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil && sync {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, filepath.Join(dir, name))
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if sync {
		return syncDir(dir)
	}
	return nil
}

// syncDir fsyncs a directory so a completed rename survives a crash.
func syncDir(dir string) error {
	df, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer df.Close()
	return df.Sync()
}

// Stats reports the on-disk footprint.
type Stats struct {
	// SnapshotBytes is the size of the current snapshot file (0 when no
	// snapshot has been written yet).
	SnapshotBytes int64
	// WALBytes is the size of the WAL's valid record payloads past its
	// header.
	WALBytes int64
	// WALRecords is the number of valid WAL records.
	WALRecords int
}

// Stats returns the current on-disk footprint. Safe to call
// concurrently with mutations.
func (e *Engine) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := Stats{SnapshotBytes: e.snapBytes}
	if e.wal != nil {
		s.WALBytes = e.wal.Size() - walHeaderSize
		s.WALRecords = e.wal.Records()
	}
	return s
}

// Dir returns the database directory.
func (e *Engine) Dir() string { return e.dir }

// Close flushes and closes the WAL. The engine rejects further
// mutations; Close is idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil
	}
	e.closed = true
	e.notifyTailLocked() // wake tailers so they observe the close
	return e.wal.Close()
}
