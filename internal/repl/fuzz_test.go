package repl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"semwebdb/internal/dict"
	"semwebdb/internal/graph"
	"semwebdb/internal/persist"
	"semwebdb/internal/term"
)

// buildFrameStream writes a real WAL through the persist writer and
// returns its framed record bytes — everything past the file header,
// which is exactly what travels inside replication chunks.
func buildFrameStream(tb testing.TB) []byte {
	tb.Helper()
	dir := tb.TempDir()
	eng, d, g, err := persist.Open(dir, persist.Options{NoSync: true, CompactThreshold: -1})
	if err != nil {
		tb.Fatal(err)
	}
	p := term.NewIRI("urn:p")
	for i := 0; i < 6; i++ {
		enc := dict.Triple3{
			d.Intern(term.NewIRI(fmt.Sprintf("urn:s:%d", i))),
			d.Intern(p),
			d.Intern(term.NewLiteral(fmt.Sprintf("v%d", i))),
		}
		g.AddID(enc)
		if err := eng.Append(d, []dict.Triple3{enc}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := eng.Close(); err != nil {
		tb.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, persist.WALFile))
	if err != nil {
		tb.Fatal(err)
	}
	if len(raw) <= persist.WALHeaderSize {
		tb.Fatalf("WAL unexpectedly empty: %d bytes", len(raw))
	}
	return raw[persist.WALHeaderSize:]
}

// corpusSeeds are the deterministic FuzzReplStream inputs, shared
// between the runtime f.Add calls and the checked-in corpus files
// under testdata/fuzz (regenerated by TestRegenerateFuzzCorpus).
func corpusSeeds(tb testing.TB) map[string][]byte {
	valid := buildFrameStream(tb)

	truncated := bytes.Clone(valid[:len(valid)-3])

	bitflip := bytes.Clone(valid)
	bitflip[9] ^= 0x01

	// Swap the first two frames: each frame stays self-consistent, but
	// the stream's record order (and so its define/reference ordering)
	// is wrong — the applier's problem, which must reject cleanly.
	n0 := 8 + int(binary.LittleEndian.Uint32(valid[0:4]))
	n1 := 8 + int(binary.LittleEndian.Uint32(valid[n0:n0+4]))
	reordered := append([]byte{}, valid[n0:n0+n1]...)
	reordered = append(reordered, valid[:n0]...)
	reordered = append(reordered, valid[n0+n1:]...)

	// A frame claiming a 65 MiB payload, within the 1 GiB record
	// bound: the leader logs and replays such a record, so a mirror
	// must stage it as a partial frame, not reject it.
	large := binary.LittleEndian.AppendUint32(bytes.Clone(valid), 65<<20)
	large = append(large, 0, 0, 0, 0, 'x', 'y')

	var chunk bytes.Buffer
	if err := WriteChunk(&chunk, Chunk{Generation: 3, From: persist.WALHeaderSize, WALSize: int64(persist.WALHeaderSize + len(valid)), WALRecords: 12, Data: valid}); err != nil {
		tb.Fatal(err)
	}

	return map[string][]byte{
		"seed-empty":     {},
		"seed-valid":     valid,
		"seed-torn":      truncated,
		"seed-bitflip":   bitflip,
		"seed-reordered": reordered,
		"seed-large-len": large,
		"seed-chunk":     chunk.Bytes(),
	}
}

// TestRegenerateFuzzCorpus rewrites the checked-in seed corpus from
// corpusSeeds. Skipped unless REPL_WRITE_CORPUS=1: the files are
// committed, and this test exists so they can be rebuilt when the wire
// format changes.
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("REPL_WRITE_CORPUS") == "" {
		t.Skip("set REPL_WRITE_CORPUS=1 to rewrite testdata/fuzz/FuzzReplStream")
	}
	dir := filepath.Join("testdata", "fuzz", "FuzzReplStream")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range corpusSeeds(t) {
		body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// FuzzReplStream feeds arbitrary bytes through the full follower
// path: the chunk reader, then a mirror engine's AppendFrames in
// data-derived chunk sizes, staged the way the follower stages them.
// Invariants: never panic, never buffer unboundedly, account for every
// byte (appended + staged = fed, until the first error), append
// nothing on an error, and reject — rather than return — records that
// are semantically invalid. What the mirror appended must replay, on
// crash recovery's path, to exactly the batches it returned.
func FuzzReplStream(f *testing.F) {
	for _, data := range corpusSeeds(f) {
		f.Add(data)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Chunk-framing arm: if the bytes parse as a chunk, re-encoding
		// the header must reproduce it byte for byte.
		if c, err := ReadChunk(bytes.NewReader(data)); err == nil {
			hdr := EncodeChunkHeader(nil, c)
			if !bytes.Equal(hdr, data[:chunkHdrSize]) {
				t.Fatalf("chunk header does not re-encode: %x vs %x", hdr, data[:chunkHdrSize])
			}
		}

		// Frame arm, fed in slices whose size the input chooses.
		dir := t.TempDir()
		eng, _, g, err := persist.Open(dir, persist.Options{NoSync: true, CompactThreshold: -1})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		step := 1
		if len(data) > 0 {
			step = int(data[0])%97 + 1
		}
		m := &mirrorFeed{eng: eng, g: g}
		failed := false
		for off := 0; off < len(data) && !failed; off += step {
			before := eng.TailState()
			if err := m.feed(data[off:min(off+step, len(data))]); err != nil {
				if ts := eng.TailState(); ts != before {
					t.Fatalf("failed batch (%v) changed the log: %+v -> %+v", err, before, ts)
				}
				failed = true
			}
			if ts := eng.TailState(); ts.WALSize != persist.WALHeaderSize+int64(m.consumed) {
				t.Fatalf("log holds %d bytes, %d consumed past the header", ts.WALSize, m.consumed)
			}
		}
		if !failed && m.consumed+len(m.stage) != len(data) {
			t.Fatalf("lost bytes: consumed %d + staged %d != fed %d", m.consumed, len(m.stage), len(data))
		}

		// Apply arm: every committed triple is well-formed, and
		// replaying the mirror's log rebuilds exactly their union.
		for _, enc := range m.committed {
			if !graph.WellFormedID(m.g.Dict(), enc) {
				t.Fatalf("AppendFrames returned ill-formed triple %v", enc)
			}
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		_, rg, _, err := persist.OpenReadOnly(dir)
		if err != nil {
			t.Fatalf("mirror log does not replay: %v", err)
		}
		if rg.Len() != m.g.Len() {
			t.Fatalf("replay holds %d triples, the mirror committed %d", rg.Len(), m.g.Len())
		}
		m.g.EachID(func(enc dict.Triple3) bool {
			if !rg.HasID(enc) {
				t.Fatalf("replay lost triple %v", enc)
			}
			return true
		})
	})
}
