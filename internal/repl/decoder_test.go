package repl

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"

	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
	"semwebdb/internal/persist"
	"semwebdb/internal/term"
)

// frame builds one record frame around payload: the u32 length + u32
// CRC32-C prefix the WAL writer produces. Test-local on purpose, so the
// persist frame codec is checked against the format, not against
// itself.
func frame(payload []byte) []byte {
	b := make([]byte, 8+len(payload))
	binary.LittleEndian.PutUint32(b[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[4:8], crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	copy(b[8:], payload)
	return b
}

// defineIRI and addTriple encode record payloads by hand from the WAL
// format: a define-term record is kind 1 plus a term record (term kind,
// uvarint length, value); an add-triple record is kind 2 plus three
// uvarint term IDs.
func defineIRI(v string) []byte {
	b := binary.AppendUvarint([]byte{1, byte(term.KindIRI)}, uint64(len(v)))
	return append(b, v...)
}

func addTriple(s, p, o uint64) []byte {
	return binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint([]byte{2}, s), p), o)
}

// testStream returns the record frames of a log holding two triples,
// encoded by hand, and checks them against the bytes the persist
// writer logs for the same appends.
func testStream(t *testing.T) (stream []byte, frames [][]byte) {
	t.Helper()
	long := "urn:o:" + string(bytes.Repeat([]byte{'x'}, 100))
	for _, p := range [][]byte{
		defineIRI("urn:s"), defineIRI("urn:p"), defineIRI("urn:o"), addTriple(1, 2, 3),
		defineIRI(long), addTriple(1, 2, 4),
	} {
		frames = append(frames, frame(p))
		stream = append(stream, frames[len(frames)-1]...)
	}

	l := newTestLeader(t)
	s, p := l.d.Intern(term.NewIRI("urn:s")), l.d.Intern(term.NewIRI("urn:p"))
	for _, o := range []string{"urn:o", long} {
		if err := l.eng.Append(l.d, []dict.Triple3{{s, p, l.d.Intern(term.NewIRI(o))}}); err != nil {
			t.Fatal(err)
		}
	}
	logged, _, err := l.eng.ReadWALAt(l.eng.TailState().Gen, persist.WALHeaderSize, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(logged, stream) {
		t.Fatalf("persist logged %x, the format says %x", logged, stream)
	}
	return stream, frames
}

// newMirror opens an empty database directory the way a follower opens
// its mirror. Its WAL header (base 0) is that of any leader that
// started empty, so a leader's record stream appends at WALHeaderSize.
func newMirror(t *testing.T) (*persist.Engine, *graph.Graph) {
	t.Helper()
	eng, _, g, err := persist.Open(t.TempDir(), persist.Options{NoSync: true, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng.Close() })
	return eng, g
}

// mirrorFeed hands chunks to a mirror engine the way the follower does,
// each staged behind any partial frame held from earlier chunks, and
// commits every returned batch to g the way a replica's sink does.
type mirrorFeed struct {
	eng       *persist.Engine
	g         *graph.Graph
	stage     []byte
	consumed  int
	committed []dict.Triple3 // every triple of every batch, in order
	fresh     int            // the ones g did not hold yet
}

func (m *mirrorFeed) feed(chunk []byte) error {
	m.stage = append(m.stage, chunk...)
	batch, n, err := m.eng.AppendFrames(m.g.Dict(), m.stage)
	if err != nil {
		return err
	}
	m.stage = m.stage[n:]
	m.consumed += n
	m.committed = append(m.committed, batch...)
	for _, t := range batch {
		if m.g.AddID(t) {
			m.fresh++
		}
	}
	return nil
}

// TestDecoderSplitMatrix feeds the same stream split at every possible
// boundary into two parts, and also one byte at a time: every split
// must append the identical bytes, apply the identical triples and
// account for every stream byte.
func TestDecoderSplitMatrix(t *testing.T) {
	stream, frames := testStream(t)
	check := func(t *testing.T, feeds [][]byte) {
		t.Helper()
		eng, g := newMirror(t)
		m := &mirrorFeed{eng: eng, g: g}
		for _, f := range feeds {
			if err := m.feed(f); err != nil {
				t.Fatalf("feed: %v", err)
			}
		}
		if m.consumed != len(stream) || len(m.stage) != 0 {
			t.Fatalf("consumed %d, %d staged, want %d and 0", m.consumed, len(m.stage), len(stream))
		}
		if m.g.Len() != 2 || m.fresh != 2 {
			t.Fatalf("mirror holds %d triples, %d reported fresh; want 2", m.g.Len(), m.fresh)
		}
		ts := eng.TailState()
		if ts.WALRecords != len(frames) {
			t.Fatalf("mirror counts %d records, want %d", ts.WALRecords, len(frames))
		}
		got, _, err := eng.ReadWALAt(ts.Gen, persist.WALHeaderSize, 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, stream) {
			t.Fatalf("mirror appended %x, want %x", got, stream)
		}
	}
	for cut := 0; cut <= len(stream); cut++ {
		check(t, [][]byte{stream[:cut], stream[cut:]})
	}
	var bytewise [][]byte
	for i := range stream {
		bytewise = append(bytewise, stream[i:i+1])
	}
	check(t, bytewise)
}

// TestDecoderPartialFrameHeld checks that an incomplete frame appends
// nothing and applies nothing until its remaining bytes arrive — also
// one whose claimed length is large but within the record bound, which
// the leader logs and replays, so a mirror must wait for it rather
// than call it damage.
func TestDecoderPartialFrameHeld(t *testing.T) {
	stream, frames := testStream(t)
	last := len(stream) - len(frames[len(frames)-1])
	eng, g := newMirror(t)
	m := &mirrorFeed{eng: eng, g: g}
	if err := m.feed(stream[:len(stream)-1]); err != nil {
		t.Fatal(err)
	}
	if m.consumed != last || len(m.stage) != len(stream)-1-last || m.g.Len() != 1 {
		t.Fatalf("partial feed: consumed %d, staged %d, %d triples; want %d, %d, 1",
			m.consumed, len(m.stage), m.g.Len(), last, len(stream)-1-last)
	}
	if ts := eng.TailState(); ts.WALSize != persist.WALHeaderSize+int64(last) {
		t.Fatalf("partial frame reached the log: WAL size %d", ts.WALSize)
	}
	if err := m.feed(stream[len(stream)-1:]); err != nil {
		t.Fatal(err)
	}
	if m.consumed != len(stream) || len(m.stage) != 0 || m.g.Len() != 2 {
		t.Fatalf("completing feed: consumed %d, staged %d, %d triples", m.consumed, len(m.stage), m.g.Len())
	}

	big := make([]byte, 8+16)
	binary.LittleEndian.PutUint32(big[0:4], 65<<20)
	before := eng.TailState()
	if err := m.feed(big); err != nil {
		t.Fatalf("65 MiB length claim rejected: %v", err)
	}
	if eng.TailState() != before || len(m.stage) != len(big) {
		t.Fatalf("65 MiB partial frame: tail %+v -> %+v, staged %d", before, eng.TailState(), len(m.stage))
	}
}

// TestDecoderRejectsCorruption exercises the failure arms: zero-length
// frames, lengths over the record bound, flipped payload bytes and
// flipped checksums must all fail with persist.ErrBadFrame (an
// ErrCorrupt) and append nothing, not even the intact frame ahead of
// the damage in the same batch; records made durable before the damage
// stay.
func TestDecoderRejectsCorruption(t *testing.T) {
	good := frame(defineIRI("urn:q"))
	cases := map[string]func() []byte{
		"zero length": func() []byte {
			return make([]byte, 8)
		},
		"absurd length": func() []byte {
			b := make([]byte, 8)
			binary.LittleEndian.PutUint32(b[0:4], 1<<30+1)
			return b
		},
		"flipped payload byte": func() []byte {
			b := bytes.Clone(good)
			b[8] ^= 0x80
			return b
		},
		"flipped checksum byte": func() []byte {
			b := bytes.Clone(good)
			b[4] ^= 0x01
			return b
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			eng, g := newMirror(t)
			m := &mirrorFeed{eng: eng, g: g}
			if err := m.feed(frame(defineIRI("urn:s"))); err != nil {
				t.Fatal(err)
			}
			before := eng.TailState()
			err := m.feed(append(frame(defineIRI("urn:p")), build()...))
			if !errors.Is(err, persist.ErrBadFrame) || !errors.Is(err, persist.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrBadFrame wrapping ErrCorrupt", err)
			}
			if ts := eng.TailState(); ts != before || ts.WALRecords != 1 {
				t.Fatalf("damaged batch changed the log: %+v -> %+v", before, ts)
			}
		})
	}
}

// TestDecoderReorderedFramesDetected: swapping two frames of a WAL
// stream keeps each frame self-consistent, so the frame check accepts
// them — the record order is what is wrong: the triple now references
// a term its define record has not introduced yet. That must be an
// apply error (not frame damage, which would only be re-read), and the
// mirror must be left exactly as it was.
func TestDecoderReorderedFramesDetected(t *testing.T) {
	_, frames := testStream(t)
	var reordered []byte
	for _, i := range []int{0, 1, 3, 2} {
		reordered = append(reordered, frames[i]...)
	}
	eng, g := newMirror(t)
	before := eng.TailState()
	batch, n, err := eng.AppendFrames(g.Dict(), reordered)
	if err == nil || errors.Is(err, persist.ErrBadFrame) {
		t.Fatalf("err = %v, want an apply error", err)
	}
	if batch != nil || n != 0 {
		t.Fatalf("rejected batch returned: %d triples, n %d", len(batch), n)
	}
	if ts := eng.TailState(); ts != before {
		t.Fatalf("rejected batch changed the log: %+v -> %+v", before, ts)
	}
}
