package persist

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"semwebdb/internal/dict"
)

// ErrWrongGeneration reports that a requested WAL generation no longer
// (or never did) match the engine's current one — the log the caller
// was tailing has been truncated by a compaction, an epoch Swap, or an
// engine restart, and its byte offsets are meaningless against the new
// log. A replication follower recovers by re-bootstrapping from the
// current snapshot.
var ErrWrongGeneration = errors.New("persist: wrong WAL generation")

// WALHeaderSize is the size of the WAL file header in bytes. The first
// record frame starts at this offset; a generation's durable size is
// never smaller.
const WALHeaderSize = walHeaderSize

// TailState is a consistent point-in-time view of the engine's durable
// log, the unit of agreement between a replication leader and its
// followers.
type TailState struct {
	// Gen identifies the current WAL generation: a random token minted
	// when the log is (re)initialized and replaced on every truncation
	// (compaction checkpoint, epoch Swap, restart). Byte offsets are
	// only comparable between equal generations.
	Gen uint64
	// WALSize is the valid durable size of the log in bytes, including
	// the WALHeaderSize-byte header. Within a generation it only grows,
	// and always ends at a record boundary.
	WALSize int64
	// WALRecords is the number of valid records in the log.
	WALRecords int
	// SnapshotBytes is the size of the current snapshot file (0 when
	// none has been written yet).
	SnapshotBytes int64
}

// newGeneration mints a random non-zero generation token. Randomness
// (rather than a counter) makes tokens unique across restarts without
// any durable state: a follower that reconnects after the leader
// restarted sees a token mismatch and re-bootstraps, which is the
// conservative, always-correct answer.
func newGeneration() uint64 {
	var b [8]byte
	for {
		if _, err := rand.Read(b[:]); err != nil {
			panic(fmt.Sprintf("persist: reading random generation: %v", err))
		}
		if g := binary.LittleEndian.Uint64(b[:]); g != 0 {
			return g // zero is reserved as "no generation"
		}
	}
}

// notifyTailLocked wakes every WaitTail blocked on the previous state.
// Called under e.mu after any change a tailer can observe (append,
// reset, close).
func (e *Engine) notifyTailLocked() {
	if e.tailCh != nil {
		close(e.tailCh)
	}
	e.tailCh = make(chan struct{})
}

// TailState returns the current tail state. Safe to call concurrently
// with mutations.
func (e *Engine) TailState() TailState {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.tailStateLocked()
}

func (e *Engine) tailStateLocked() TailState {
	return TailState{
		Gen:           e.gen,
		WALSize:       e.wal.Size(),
		WALRecords:    e.wal.Records(),
		SnapshotBytes: e.snapBytes,
	}
}

// WaitTail blocks until the durable log differs from the caller's view
// — the generation is not gen, or the valid size exceeds from — or the
// context ends, and returns the state either way (with ctx.Err() when
// the context ended first). A long-polling leader endpoint maps a
// deadline expiry to an empty heartbeat chunk.
func (e *Engine) WaitTail(ctx context.Context, gen uint64, from int64) (TailState, error) {
	for {
		e.mu.Lock()
		st := e.tailStateLocked()
		if e.closed {
			e.mu.Unlock()
			return st, fmt.Errorf("persist: engine is closed")
		}
		if st.Gen != gen || st.WALSize > from {
			e.mu.Unlock()
			return st, nil
		}
		ch := e.tailCh
		e.mu.Unlock()
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-ch:
		}
	}
}

// ReadWALAt reads up to max bytes of the durable log starting at byte
// offset from (0 includes the header), verifying the caller's
// generation first. It returns the bytes together with the state the
// read was consistent with. A from beyond the durable size also
// reports ErrWrongGeneration: within one generation the log only
// grows, so a follower claiming more bytes than the leader holds is
// tracking a different log and must re-bootstrap.
func (e *Engine) ReadWALAt(gen uint64, from int64, max int) ([]byte, TailState, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := e.tailStateLocked()
	if e.closed {
		return nil, st, fmt.Errorf("persist: engine is closed")
	}
	if gen != e.gen {
		return nil, st, ErrWrongGeneration
	}
	if from < 0 || from > st.WALSize {
		return nil, st, fmt.Errorf("%w: offset %d outside durable log of %d bytes", ErrWrongGeneration, from, st.WALSize)
	}
	n := st.WALSize - from
	if int64(max) < n {
		n = int64(max)
	}
	if n <= 0 {
		return nil, st, nil
	}
	b := make([]byte, n)
	if err := e.wal.ReadValidAt(b, from); err != nil {
		return nil, st, err
	}
	return b, st, nil
}

// OpenSnapshot opens the current snapshot file for reading, verifying
// the caller's generation so the snapshot returned is the one the
// generation's WAL rides beside. A nil ReadCloser (with nil error)
// means no snapshot exists yet — the generation's full state is the
// WAL alone. The returned fd survives concurrent compactions (a rename
// replaces the directory entry, not the open file), so the caller may
// stream it without holding any lock.
func (e *Engine) OpenSnapshot(gen uint64) (io.ReadCloser, int64, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, 0, fmt.Errorf("persist: engine is closed")
	}
	if gen != e.gen {
		return nil, 0, ErrWrongGeneration
	}
	f, err := os.Open(filepath.Join(e.dir, SnapshotFile))
	if os.IsNotExist(err) {
		return nil, 0, nil
	}
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// AppendFrames is the mirror half of replication: b is a suffix of a
// leader's log, starting at this engine's durable size. AppendFrames
// verifies the complete record frames at the start of b, decodes them
// into d — define records intern their terms, triple records resolve
// to the returned batch, duplicates included — and appends exactly
// those n bytes with one fsync, so the batch is durable before the
// caller commits it. A trailing partial frame is left for the caller
// to complete with later bytes (n == 0 and an empty batch when b holds
// no complete frame). On a damaged frame (ErrBadFrame), a record that
// does not decode against d, or a failed append, nothing is appended.
//
// d must be the dictionary Open recovered. The records are decoded
// through an applier the engine owns, seeded from the WAL's durable ID
// watermark on first use and re-seeded whenever the log's watermark
// moved without it (a failed batch, an Append), so define records
// resolve across calls as a replay of the mirror resolves them.
func (e *Engine) AppendFrames(d *dict.Dict, b []byte) (batch []dict.Triple3, n int, err error) {
	payloads, n, err := splitFrames(b)
	if err != nil || n == 0 {
		return nil, 0, err
	}
	e.mu.Lock()
	defined := e.wal.defined
	e.mu.Unlock()
	a := e.applier
	if a == nil || a.watermark() != defined {
		a = newApplier(d, defined)
		e.applier = a
	}
	for _, p := range payloads {
		t, isTriple, err := a.apply(p)
		if err != nil {
			return nil, 0, fmt.Errorf("persist: applying mirrored record: %w", err)
		}
		if isTriple {
			batch = append(batch, t)
		}
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, 0, fmt.Errorf("persist: engine is closed")
	}
	if err := e.wal.appendFrames(b[:n], len(payloads), int(a.watermark()-defined)); err != nil {
		return nil, 0, err
	}
	e.notifyTailLocked()
	return batch, n, nil
}
