package repl

import (
	"bytes"
	"encoding/binary"
	"io"
	"strings"
	"testing"
)

// TestChunkRoundTrip writes chunks through the wire framing and reads
// them back, including the empty-payload heartbeat.
func TestChunkRoundTrip(t *testing.T) {
	chunks := []Chunk{
		{Generation: 0xDEADBEEFCAFE, From: 20, WALSize: 1234, WALRecords: 17, Data: []byte("framed records go here")},
		{Generation: 1, From: 0, WALSize: 20, WALRecords: 0, Data: nil}, // heartbeat
		{Generation: ^uint64(0), From: 1 << 40, WALSize: 1 << 41, WALRecords: 1 << 20, Data: bytes.Repeat([]byte{0x7F}, 4096)},
	}
	for i, c := range chunks {
		var buf bytes.Buffer
		if err := WriteChunk(&buf, c); err != nil {
			t.Fatalf("chunk %d: write: %v", i, err)
		}
		got, err := ReadChunk(&buf)
		if err != nil {
			t.Fatalf("chunk %d: read: %v", i, err)
		}
		if got.Generation != c.Generation || got.From != c.From || got.WALSize != c.WALSize || got.WALRecords != c.WALRecords {
			t.Fatalf("chunk %d: header mismatch: got %+v want %+v", i, got, c)
		}
		if !bytes.Equal(got.Data, c.Data) {
			t.Fatalf("chunk %d: payload mismatch: %d vs %d bytes", i, len(got.Data), len(c.Data))
		}
		if buf.Len() != 0 {
			t.Fatalf("chunk %d: %d trailing bytes after read", i, buf.Len())
		}
	}
}

// TestReadChunkRejects drives every validation arm of ReadChunk with a
// hand-damaged header.
func TestReadChunkRejects(t *testing.T) {
	var ok bytes.Buffer
	if err := WriteChunk(&ok, Chunk{Generation: 7, From: 20, WALSize: 52, WALRecords: 2, Data: []byte("abcd")}); err != nil {
		t.Fatal(err)
	}
	valid := ok.Bytes()

	damage := map[string]func() []byte{
		"empty stream":     func() []byte { return nil },
		"truncated header": func() []byte { return valid[:chunkHdrSize-1] },
		"bad magic": func() []byte {
			b := bytes.Clone(valid)
			b[0] = 'X'
			return b
		},
		"future version": func() []byte {
			b := bytes.Clone(valid)
			binary.LittleEndian.PutUint16(b[8:10], wireVersion+1)
			return b
		},
		"nonzero flags": func() []byte {
			b := bytes.Clone(valid)
			binary.LittleEndian.PutUint16(b[10:12], 1)
			return b
		},
		"negative from": func() []byte {
			b := bytes.Clone(valid)
			binary.LittleEndian.PutUint64(b[20:28], ^uint64(0))
			return b
		},
		"negative wal size": func() []byte {
			b := bytes.Clone(valid)
			binary.LittleEndian.PutUint64(b[28:36], ^uint64(3))
			return b
		},
		"payload over cap": func() []byte {
			b := bytes.Clone(valid)
			binary.LittleEndian.PutUint32(b[44:48], maxChunkPayload+1)
			return b
		},
		"truncated payload": func() []byte { return valid[:len(valid)-2] },
	}
	for name, build := range damage {
		t.Run(name, func(t *testing.T) {
			if _, err := ReadChunk(bytes.NewReader(build())); err == nil {
				t.Fatal("damaged chunk read without error")
			}
		})
	}
}

// TestReadChunkBoundedAllocation: a header claiming a huge payload on a
// stream that does not carry it must fail from the missing bytes, not
// allocate the claim. We can't measure the allocation directly here,
// but we can pin the failure mode: an unexpected-EOF error, promptly.
func TestReadChunkBoundedAllocation(t *testing.T) {
	hdr := EncodeChunkHeader(nil, Chunk{Generation: 1, From: 0, WALSize: 99, Data: nil})
	// Claim just under the cap with only 3 real bytes behind it.
	binary.LittleEndian.PutUint32(hdr[44:48], maxChunkPayload)
	_, err := ReadChunk(io.MultiReader(bytes.NewReader(hdr), strings.NewReader("abc")))
	if err == nil {
		t.Fatal("short payload read without error")
	}
}
