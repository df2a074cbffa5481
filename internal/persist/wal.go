package persist

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"time"

	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
)

// WAL file layout (version 1):
//
//	header   magic "SWDB-WAL" | uint16 version | uint16 flags |
//	         uint64 baseTerms (LE)
//	record*  uint32 payload length | uint32 CRC32-C | payload
//
// A record payload is a kind byte followed by its body: defineTerm
// carries an inline term record and implicitly assigns the next
// dictionary ID; addTriple carries three uvarint term IDs. baseTerms is
// the dictionary size when this WAL generation started: IDs at or below
// it resolve against the snapshot, IDs above it against the defineTerm
// records in order. Replay maps define records through the live
// dictionary rather than trusting their positions, which makes replay
// idempotent: if a crash lands between snapshot compaction and WAL
// truncation, the stale records re-intern to their existing IDs and
// re-add triples the snapshot already holds — set semantics absorb
// them.
//
// Appends are framed per record but flushed and fsynced per batch
// (one Append call = one fsync), so group commit costs one disk sync
// regardless of batch size. An unreadable record — short frame, short
// payload, checksum mismatch, or a zero-length frame as left by a
// zero-filled crash hole — marks the end of the valid prefix: replay
// keeps every intact record before it, and the writer saves the
// discarded bytes to a sidecar ".torn" file before truncating them
// away. Without fsync-boundary markers a mid-file flip is
// indistinguishable from a crash tail, so the prefix rule plus the
// preserved tail is the whole recovery contract.

// WAL is an open write-ahead log positioned for appending. It is not
// safe for concurrent use; the owning database serializes access.
type WAL struct {
	f       *os.File
	bw      *bufio.Writer
	size    int64 // valid on-disk bytes, including the header
	records int
	defined dict.ID // highest term ID already durable (snapshot or define record)
	sync    bool
	// failed is the sticky error of a reset or rollback whose file
	// operations did not complete: the on-disk log no longer matches
	// the in-memory accounting, so acknowledging further appends would
	// report durability for records a replay cannot read. Every write
	// entry point refuses until the log is reopened.
	failed error
}

// ReplayStats summarizes a WAL replay.
type ReplayStats struct {
	// Records is the number of valid records of any kind.
	Records int
	// Applied is the number of add-triple records applied (including
	// duplicates re-absorbed by set semantics).
	Applied int
	// Defines is the number of define-term records; the WAL's ordinal
	// ID space covers exactly (Base, Base+Defines].
	Defines int
	// Base is the header's baseTerms: the dictionary size when this WAL
	// generation started.
	Base dict.ID
	// Valid is the byte offset of the end of the valid record prefix.
	Valid int64
}

// applier decodes WAL record payloads, one at a time, against a
// dictionary: the one record path behind crash-recovery replay
// (ReplayWAL) and a replication mirror's appends (Engine.AppendFrames).
//
// base is the durable ID watermark the record stream starts above:
// triple records referencing IDs at or below it resolve directly
// against the dictionary, IDs above it must be introduced by earlier
// define-term records in the same stream. For a full-log replay that
// is the WAL header's baseTerms; for a mirror resuming mid-log it is
// the WAL's durable watermark. Define records are re-interned through
// the live dictionary rather than trusted positionally, so re-applying
// an already-applied suffix is harmless.
type applier struct {
	d       *dict.Dict
	base    uint64
	defines int
	records int
	// remap resolves define-record IDs (walID = base + ordinal) to the
	// IDs the live dictionary actually assigned.
	remap map[dict.ID]dict.ID
}

func newApplier(d *dict.Dict, base dict.ID) *applier {
	return &applier{d: d, base: uint64(base), remap: make(map[dict.ID]dict.ID)}
}

// watermark is the durable ID watermark after the records applied so
// far: base plus their define records.
func (a *applier) watermark() dict.ID { return dict.ID(a.base + uint64(a.defines)) }

// apply decodes one intact record payload (its frame already
// verified): a define record interns its term into the dictionary, an
// add-triple record returns its triple (isTriple) in live-dictionary
// IDs. No graph is touched: the caller adds the triple where it
// belongs. Errors mean the record is semantically invalid for the
// stream it was read from.
func (a *applier) apply(payload []byte) (t dict.Triple3, isTriple bool, err error) {
	c := &cursor{p: payload}
	kind, err := c.byte1()
	if err != nil {
		return t, false, err
	}
	switch kind {
	case recDefineTerm:
		tm, err := decodeTerm(c)
		if err != nil {
			return t, false, fmt.Errorf("record %d: %w", a.records+1, err)
		}
		a.defines++
		a.remap[a.watermark()] = a.d.Intern(tm)
	case recAddTriple:
		for i := 0; i < 3; i++ {
			raw, err := c.uvarint()
			if err != nil {
				return t, false, fmt.Errorf("record %d: %w", a.records+1, err)
			}
			id := dict.ID(raw)
			if uint64(id) != raw || id == dict.Wildcard {
				return t, false, corruptf("record %d: invalid term ID %d", a.records+1, raw)
			}
			if raw > a.base {
				real, ok := a.remap[id]
				if !ok {
					return t, false, corruptf("record %d: triple references undefined term ID %d", a.records+1, raw)
				}
				id = real
			}
			t[i] = id
		}
		if !graph.WellFormedID(a.d, t) {
			return t, false, corruptf("record %d: ill-formed triple %v", a.records+1, t)
		}
		isTriple = true
	default:
		return t, false, corruptf("record %d: unknown kind %d", a.records+1, kind)
	}
	if !c.done() {
		return t, false, corruptf("record %d: %d trailing bytes", a.records+1, c.remaining())
	}
	a.records++
	return t, isTriple, nil
}

// ReplayWAL reads a WAL stream, applying its records to the
// dictionary and graph (normally the state just decoded from the
// snapshot the WAL rides beside). A torn tail is not an error — the
// stats describe the valid prefix; a header mismatch or a semantically
// invalid record inside an intact frame is.
func ReplayWAL(r io.Reader, d *dict.Dict, g *graph.Graph) (ReplayStats, error) {
	var res ReplayStats
	var hdr [walHeaderSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return res, corruptf("short WAL header: %v", err)
	}
	if string(hdr[:8]) != walMagic {
		return res, corruptf("bad WAL magic %q", hdr[:8])
	}
	if v := binary.LittleEndian.Uint16(hdr[8:10]); v != formatVersion {
		return res, corruptf("unsupported WAL version %d", v)
	}
	base := binary.LittleEndian.Uint64(hdr[12:20])
	if base > uint64(d.Len()) {
		return res, corruptf("WAL base %d exceeds dictionary size %d", base, d.Len())
	}
	res.Base = dict.ID(base)
	res.Valid = walHeaderSize

	a := newApplier(d, res.Base)
	br := bufio.NewReader(r)
	for {
		payload, frame, ok := readRecord(br)
		if !ok {
			return res, nil // torn or clean end
		}
		t, isTriple, err := a.apply(payload)
		if err != nil {
			return res, err
		}
		if isTriple {
			g.AddID(t)
			res.Applied++
		} else {
			res.Defines++
		}
		res.Records++
		res.Valid += frame
	}
}

// saveTornTail copies the to-be-discarded byte range [valid, size) of
// the log into path+".torn" (overwriting any previous one), best
// effort: recovery proceeds even if the copy fails, but when it
// succeeds an operator can inspect exactly what a crash (or mid-file
// damage) cost.
func saveTornTail(f *os.File, path string, valid, size int64) {
	tail := make([]byte, size-valid)
	if _, err := f.ReadAt(tail, valid); err != nil {
		return
	}
	os.WriteFile(path+".torn", tail, 0o644)
}

// A record frame is frameHeaderSize bytes — uint32 payload length,
// uint32 CRC32-C of the payload — followed by the payload. frameLen and
// checkFrame are the one frame check: every reader of record bytes,
// the streaming WAL replay and a mirror's AppendFrames alike, goes
// through them.
const frameHeaderSize = 8

// maxRecordPayload bounds the payload length a frame may claim. Real
// records are a term or three varints; a longer claim is garbage. No
// reader allocates on the claim alone (both grow with the bytes
// actually present), so the bound is a plausibility check, and it is
// the same for every reader: a record the leader can log and replay,
// a mirror accepts.
const maxRecordPayload = 1 << 30

// ErrBadFrame reports a record frame whose header or checksum does not
// verify. Replay reads it as the end of the valid prefix; a mirror
// reads it as bytes damaged in transit, to be re-read from its durable
// offset. It wraps ErrCorrupt.
var ErrBadFrame = fmt.Errorf("%w: bad record frame", ErrCorrupt)

// frameLen returns the payload length a frame header claims. No record
// has an empty payload (there is always a kind byte), so a zero length
// is not a record — typically a zero-filled hole left by a crash
// mid-write. (Conveniently, CRC32-C of nothing is 0, so an all-zero
// frame would otherwise pass the checksum.)
func frameLen(hdr []byte) (int, error) {
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n == 0 || n > maxRecordPayload {
		return 0, fmt.Errorf("%w: payload length %d", ErrBadFrame, n)
	}
	return int(n), nil
}

// checkFrame verifies payload against the checksum in its frame header.
func checkFrame(hdr, payload []byte) error {
	if checksum(payload) != binary.LittleEndian.Uint32(hdr[4:8]) {
		return fmt.Errorf("%w: checksum mismatch", ErrBadFrame)
	}
	return nil
}

// readRecord reads one framed record. ok is false at a clean end of
// stream or on any torn/corrupt frame — the caller treats both as the
// end of the valid prefix.
func readRecord(br *bufio.Reader) (payload []byte, frame int64, ok bool) {
	var hdr [frameHeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, 0, false
	}
	n, err := frameLen(hdr[:])
	if err != nil {
		return nil, 0, false
	}
	// Copy through a growing buffer so the allocation tracks the bytes
	// actually present, not the length a torn or hostile frame claims.
	var pb bytes.Buffer
	if _, err := io.CopyN(&pb, br, int64(n)); err != nil {
		return nil, 0, false
	}
	if checkFrame(hdr[:], pb.Bytes()) != nil {
		return nil, 0, false
	}
	return pb.Bytes(), int64(frameHeaderSize + n), true
}

// splitFrames returns the payloads of the complete frames at the start
// of b and the bytes n they span; a trailing partial frame is left for
// later bytes to complete. A frame that fails the frame check is an
// ErrBadFrame error.
func splitFrames(b []byte) (payloads [][]byte, n int, err error) {
	for len(b)-n >= frameHeaderSize {
		hdr := b[n : n+frameHeaderSize]
		size, err := frameLen(hdr)
		if err != nil {
			return nil, 0, err
		}
		end := n + frameHeaderSize + size
		if end > len(b) {
			break
		}
		p := b[n+frameHeaderSize : end]
		if err := checkFrame(hdr, p); err != nil {
			return nil, 0, err
		}
		payloads = append(payloads, p)
		n = end
	}
	return payloads, n, nil
}

// OpenWAL opens (creating if needed) the WAL at path, replays its
// valid prefix into d and g, truncates any torn tail, and leaves the
// log positioned for appending. A file shorter than the header — a
// writer torn while creating it — is reinitialized empty; a present
// header that does not parse is an error (it is not this format, or a
// version this decoder does not speak). syncEnabled selects whether
// Append fsyncs each batch.
func OpenWAL(path string, d *dict.Dict, g *graph.Graph, syncEnabled bool) (*WAL, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	// One writer per database: the flock lives on the WAL fd and dies
	// with the process, so a crash never leaves the directory locked.
	if err := lockFileExcl(f); err != nil {
		f.Close()
		return nil, err
	}
	w := &WAL{f: f, sync: syncEnabled}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	if st.Size() < walHeaderSize {
		if err := w.reset(dict.ID(d.Len())); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		res, err := ReplayWAL(f, d, g)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if res.Valid < st.Size() {
			// Preserve the discarded tail beside the log before cutting
			// it off: recovery must never silently destroy bytes. (A
			// frame that fails its checksum mid-file is indistinguishable
			// from a torn tail without fsync-boundary markers; the saved
			// tail keeps the evidence either way.)
			saveTornTail(f, path, res.Valid, st.Size())
			if err := f.Truncate(res.Valid); err != nil {
				f.Close()
				return nil, err
			}
		}
		if _, err := f.Seek(res.Valid, io.SeekStart); err != nil {
			f.Close()
			return nil, err
		}
		w.size = res.Valid
		w.records = res.Records
		// The durable ID prefix is exactly what the WAL's ordinal space
		// covers: base + its define records — NOT the dictionary length,
		// which can be larger when a stale WAL (compaction crashed
		// before truncating it) replays against a newer snapshot. IDs
		// beyond it must be re-defined by future appends so that replay
		// ordinals resolve; re-interning makes that idempotent.
		w.defined = res.Base + dict.ID(res.Defines)
	}
	w.bw = bufio.NewWriter(f)
	return w, nil
}

// Append logs one batch of triples, inlining define-term records for
// any term IDs not yet durable, then flushes and (when enabled) fsyncs
// once for the whole batch. On error the in-memory state is unchanged
// and the file is truncated back to the last durable batch, so a
// failed append never leaves a half-written batch ahead of the live
// offset.
func (w *WAL) Append(d *dict.Dict, triples []dict.Triple3) error {
	if w.failed != nil {
		return fmt.Errorf("persist: WAL is failed: %w", w.failed)
	}
	startSize, startRecords, startDefined := w.size, w.records, w.defined
	terms := d.Terms()
	var e buf
	for _, t := range triples {
		maxID := t[0]
		if t[1] > maxID {
			maxID = t[1]
		}
		if t[2] > maxID {
			maxID = t[2]
		}
		if int(maxID) > len(terms) {
			return fmt.Errorf("persist: triple %v references unknown term ID %d", t, maxID)
		}
		for id := w.defined + 1; id <= maxID; id++ {
			e = buf{b: e.b[:0]}
			e.byte1(recDefineTerm)
			encodeTerm(&e, terms[id-1])
			if err := w.writeRecord(e.bytes()); err != nil {
				return w.rollback(startSize, startRecords, startDefined, err)
			}
			w.defined = id
		}
		e = buf{b: e.b[:0]}
		e.byte1(recAddTriple)
		e.uvarint(uint64(t[0]))
		e.uvarint(uint64(t[1]))
		e.uvarint(uint64(t[2]))
		if err := w.writeRecord(e.bytes()); err != nil {
			return w.rollback(startSize, startRecords, startDefined, err)
		}
	}
	return w.commit(startSize, startRecords, startDefined)
}

// appendFrames appends record frames verbatim — a mirror extending its
// copy of a leader's log. Engine.AppendFrames has verified and decoded
// every frame, and passes the record and define counts its applier
// observed, so the accounting (and the durable ID watermark replay
// ordinals resolve against) stays exact.
func (w *WAL) appendFrames(b []byte, records, defines int) error {
	if w.failed != nil {
		return fmt.Errorf("persist: WAL is failed: %w", w.failed)
	}
	startSize, startRecords, startDefined := w.size, w.records, w.defined
	if _, err := w.bw.Write(b); err != nil {
		return w.rollback(startSize, startRecords, startDefined, err)
	}
	w.size += int64(len(b))
	w.records += records
	w.defined += dict.ID(defines)
	return w.commit(startSize, startRecords, startDefined)
}

// commit flushes and (when enabled) fsyncs the batch written since the
// given pre-batch state — one disk sync per batch — and rolls back to
// that state on failure.
func (w *WAL) commit(size int64, records int, defined dict.ID) error {
	if err := w.bw.Flush(); err != nil {
		return w.rollback(size, records, defined, err)
	}
	if w.sync {
		t0 := time.Now()
		if err := w.f.Sync(); err != nil {
			return w.rollback(size, records, defined, err)
		}
		walFsyncSeconds.ObserveSince(t0)
	}
	walAppends.Inc()
	walAppendBytes.Add(uint64(w.size - size))
	return nil
}

// ReadValidAt fills p from the valid byte range of the log starting at
// off (positional read; the append position is untouched). The caller
// must keep [off, off+len(p)) within the valid size, and must hold the
// owning database's serialization so no append or reset is in flight.
func (w *WAL) ReadValidAt(p []byte, off int64) error {
	if off < 0 || off+int64(len(p)) > w.size {
		return fmt.Errorf("persist: WAL read [%d,%d) outside valid size %d", off, off+int64(len(p)), w.size)
	}
	_, err := w.f.ReadAt(p, off)
	return err
}

func (w *WAL) writeRecord(payload []byte) error {
	var hdr [frameHeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], checksum(payload))
	if _, err := w.bw.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.bw.Write(payload); err != nil {
		return err
	}
	w.size += int64(frameHeaderSize + len(payload))
	w.records++
	return nil
}

// rollback restores the pre-batch state after a failed append. If the
// file cannot be restored too, the log is marked failed: the in-memory
// accounting no longer describes the bytes on disk, and a later
// "successful" batch after a garbage gap would be unreadable at
// replay despite its fsync.
func (w *WAL) rollback(size int64, records int, defined dict.ID, cause error) error {
	w.bw.Reset(w.f)
	if err := w.f.Truncate(size); err != nil {
		w.failed = err
	} else if _, err := w.f.Seek(size, io.SeekStart); err != nil {
		w.failed = err
	}
	w.size, w.records, w.defined = size, records, defined
	return cause
}

// Reset empties the log and starts a new generation whose base is the
// current dictionary size — called right after the snapshot beside it
// has been compacted to cover everything the log held.
func (w *WAL) Reset(base dict.ID) error {
	if w.failed != nil {
		return fmt.Errorf("persist: WAL is failed: %w", w.failed)
	}
	return w.reset(base)
}

// reset rewrites the log as an empty generation. A failure part-way
// (truncated but headerless, say) marks the log failed — appends must
// not land in a file a replay cannot even parse the header of.
func (w *WAL) reset(base dict.ID) error {
	fail := func(err error) error {
		w.failed = err
		return err
	}
	if err := w.f.Truncate(0); err != nil {
		return fail(err)
	}
	if _, err := w.f.Seek(0, io.SeekStart); err != nil {
		return fail(err)
	}
	var hdr [walHeaderSize]byte
	copy(hdr[:8], walMagic)
	binary.LittleEndian.PutUint16(hdr[8:10], formatVersion)
	binary.LittleEndian.PutUint16(hdr[10:12], 0)
	binary.LittleEndian.PutUint64(hdr[12:20], uint64(base))
	if _, err := w.f.Write(hdr[:]); err != nil {
		return fail(err)
	}
	if w.sync {
		if err := w.f.Sync(); err != nil {
			return fail(err)
		}
	}
	w.size = walHeaderSize
	w.records = 0
	w.defined = base
	if w.bw != nil {
		w.bw.Reset(w.f)
	}
	return nil
}

// Size returns the valid on-disk size in bytes, including the header.
func (w *WAL) Size() int64 { return w.size }

// Records returns the number of valid records (replayed plus appended).
func (w *WAL) Records() int { return w.records }

// Sync flushes buffered records and forces them to stable storage,
// regardless of the per-batch sync policy.
func (w *WAL) Sync() error {
	if err := w.bw.Flush(); err != nil {
		return err
	}
	return w.f.Sync()
}

// Close flushes, syncs and closes the log file.
func (w *WAL) Close() error {
	flushErr := w.bw.Flush()
	syncErr := w.f.Sync()
	closeErr := w.f.Close()
	if flushErr != nil {
		return flushErr
	}
	if syncErr != nil {
		return syncErr
	}
	return closeErr
}
