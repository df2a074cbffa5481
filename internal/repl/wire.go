// Package repl implements WAL-shipping replication: a leader serves
// its durable log — the snapshot it rides beside plus a long-polled
// tail of appended record frames — and a follower mirrors that log
// byte for byte into its own database directory, decoding records
// through the same idempotent replay path crash recovery uses and
// handing each decoded batch to a Sink, which owns the graph. This
// package owns the transport and the tail loop; every byte and file of
// the mirror directory is internal/persist's (Engine.AppendFrames,
// InstallMirror).
//
// The unit of agreement is (generation, byte offset) into the leader's
// WAL. Within a generation the log is append-only, so a follower's
// durable mirror size doubles as its replication offset; a generation
// switch (compaction checkpoint, epoch Swap, leader restart) voids all
// offsets, and the follower re-bootstraps from the current snapshot.
// Because record frames carry their own CRC32-C and replay re-interns
// define records idempotently, arbitrary crash points on either side
// reduce to cases the storage layer already handles: a torn local tail
// is truncated on reopen and re-fetched, and a re-applied suffix is
// absorbed by set semantics.
package repl

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// Chunk wire layout (version 1):
//
//	magic "SWDB-RPL" | uint16 version | uint16 flags |
//	uint64 generation | uint64 from | uint64 walSize |
//	uint64 walRecords | uint32 payloadLen | payload
//
// The payload is a verbatim byte range [from, from+payloadLen) of the
// leader's WAL file for the named generation — framed records exactly
// as written, CRCs carried through; at from=0 it begins with the WAL
// file header. walSize/walRecords are the leader's durable totals at
// response time, so every chunk doubles as a lag report. A chunk may
// end mid-record (the leader slices by bytes, not frames); the follower
// stages the partial frame until the next chunk completes it. An
// empty payload is a heartbeat: the long-poll window expired with
// nothing new.
const (
	chunkMagic   = "SWDB-RPL"
	wireVersion  = 1
	chunkHdrSize = 8 + 2 + 2 + 8 + 8 + 8 + 8 + 4

	// maxChunkPayload bounds what a decoder will buffer for one chunk;
	// leaders slice well below it (see serve's maxTailBytes).
	maxChunkPayload = 64 << 20
)

// Chunk is one replication batch: a byte range of the leader's WAL
// plus the durable state it was consistent with.
type Chunk struct {
	Generation uint64
	From       int64
	WALSize    int64
	WALRecords int
	Data       []byte
}

// State is a leader's replication state as served by the repl/state
// endpoint; the JSON field names match semweb.ReplState.
type State struct {
	Replica       bool   `json:"replica"`
	Generation    uint64 `json:"generation"`
	WALSize       int64  `json:"wal_size"`
	WALRecords    int    `json:"wal_records"`
	SnapshotBytes int64  `json:"snapshot_bytes"`
}

// Source is where a follower replicates from: the leader's replication
// state, its current snapshot, and its WAL tail. Implementations are
// an HTTP client (Dial) in production and in-process adapters in
// tests.
type Source interface {
	// State reports the current replication state.
	State(ctx context.Context) (State, error)
	// Snapshot opens the snapshot of the given generation. A nil
	// ReadCloser with nil error means the generation has no snapshot
	// (its full state is the WAL alone). persist.ErrWrongGeneration
	// reports a generation switch.
	Snapshot(ctx context.Context, gen uint64) (io.ReadCloser, int64, error)
	// Tail returns WAL bytes of the given generation starting at byte
	// offset from, up to max bytes per chunk. When the log holds
	// nothing past from, the call long-polls up to wait before
	// returning an empty heartbeat chunk. persist.ErrWrongGeneration
	// reports a generation switch (including from beyond the durable
	// size).
	Tail(ctx context.Context, gen uint64, from int64, max int, wait time.Duration) (Chunk, error)
}

// EncodeChunkHeader appends the wire header for c to b (c.Data is not
// appended; the caller streams it separately).
func EncodeChunkHeader(b []byte, c Chunk) []byte {
	b = append(b, chunkMagic...)
	b = binary.LittleEndian.AppendUint16(b, wireVersion)
	b = binary.LittleEndian.AppendUint16(b, 0)
	b = binary.LittleEndian.AppendUint64(b, c.Generation)
	b = binary.LittleEndian.AppendUint64(b, uint64(c.From))
	b = binary.LittleEndian.AppendUint64(b, uint64(c.WALSize))
	b = binary.LittleEndian.AppendUint64(b, uint64(c.WALRecords))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(c.Data)))
	return b
}

// WriteChunk writes the framed chunk (header + payload) to w.
func WriteChunk(w io.Writer, c Chunk) error {
	hdr := EncodeChunkHeader(make([]byte, 0, chunkHdrSize), c)
	if _, err := w.Write(hdr); err != nil {
		return err
	}
	if len(c.Data) == 0 {
		return nil
	}
	_, err := w.Write(c.Data)
	return err
}

// ReadChunk reads one framed chunk from r. Header fields are validated
// for shape (magic, version, zero flags, sane lengths) so a confused
// or hostile peer cannot make the reader allocate more than the bytes
// actually sent claim, and every accepted header re-encodes to itself;
// payload integrity is the mirror engine's frame check.
func ReadChunk(r io.Reader) (Chunk, error) {
	var c Chunk
	var hdr [chunkHdrSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return c, fmt.Errorf("repl: short chunk header: %w", err)
	}
	if string(hdr[:8]) != chunkMagic {
		return c, fmt.Errorf("repl: bad chunk magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint16(hdr[8:10]); v != wireVersion {
		return c, fmt.Errorf("repl: unsupported wire version %d", v)
	}
	if f := binary.LittleEndian.Uint16(hdr[10:12]); f != 0 {
		return c, fmt.Errorf("repl: unsupported chunk flags %#x", f)
	}
	c.Generation = binary.LittleEndian.Uint64(hdr[12:20])
	c.From = int64(binary.LittleEndian.Uint64(hdr[20:28]))
	c.WALSize = int64(binary.LittleEndian.Uint64(hdr[28:36]))
	c.WALRecords = int(int64(binary.LittleEndian.Uint64(hdr[36:44])))
	n := binary.LittleEndian.Uint32(hdr[44:48])
	if c.From < 0 || c.WALSize < 0 || c.WALRecords < 0 {
		return c, fmt.Errorf("repl: negative chunk coordinates")
	}
	if n > maxChunkPayload {
		return c, fmt.Errorf("repl: chunk payload of %d bytes exceeds limit", n)
	}
	if n > 0 {
		// Copy through a growing buffer so the allocation tracks the
		// bytes actually present, not the length a truncated or hostile
		// stream claims (the readRecord idiom).
		var pb bytes.Buffer
		if _, err := io.CopyN(&pb, r, int64(n)); err != nil {
			return c, fmt.Errorf("repl: short chunk payload: %w", err)
		}
		c.Data = pb.Bytes()
	}
	return c, nil
}
