package model

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/graph"
)

func TestSerializeRoundTrip(t *testing.T) {
	s := fig2LikeSummary()
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("reported %d bytes, wrote %d", n, buf.Len())
	}
	s2, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.N != s.N || s2.Cost() != s.Cost() {
		t.Fatalf("round trip changed summary: N %d/%d cost %d/%d",
			s.N, s2.N, s.Cost(), s2.Cost())
	}
	if !graph.Equal(s.Decode(), s2.Decode()) {
		t.Fatal("round trip changed the represented graph")
	}
}

func TestSerializeEmptySummary(t *testing.T) {
	parent := []int32{-1, -1}
	s := New(2, parent, nil)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.N != 2 || len(s2.Edges) != 0 {
		t.Fatalf("unexpected summary: N=%d edges=%d", s2.N, len(s2.Edges))
	}
}

func TestReadFromRejectsCorruptInput(t *testing.T) {
	cases := map[string]string{
		"empty":       "",
		"bad magic":   "XXXX\x01",
		"bad version": "SLGR\x09",
		"truncated":   "SLGR\x01\x05",
	}
	for name, in := range cases {
		if _, err := ReadFrom(strings.NewReader(in)); err == nil {
			t.Fatalf("%s: expected error", name)
		}
	}
	// Structurally invalid: edge endpoint out of range.
	var buf bytes.Buffer
	s := New(2, []int32{-1, -1}, []Edge{{A: 0, B: 1, Sign: 1}})
	s.WriteTo(&buf)
	data := buf.Bytes()
	// Corrupt the edge's B endpoint to an out-of-range value.
	data[len(data)-2] = 0x7f
	if _, err := ReadFrom(bytes.NewReader(data)); err == nil {
		t.Fatal("expected out-of-range endpoint error")
	}
}

func TestReadFromRejectsInvalidSignByte(t *testing.T) {
	var buf bytes.Buffer
	s := New(2, []int32{-1, -1}, []Edge{{A: 0, B: 1, Sign: 1}})
	s.WriteTo(&buf)
	data := buf.Bytes()
	// The sign byte is the last byte of the stream; WriteTo only ever
	// emits 0 or 1, so anything else is corruption and must not be
	// silently decoded as an n-edge.
	data[len(data)-1] = 7
	if _, err := ReadFrom(bytes.NewReader(data)); err == nil {
		t.Fatal("expected invalid sign byte error")
	}
}

func TestReadFromRejectsInt32Overflow(t *testing.T) {
	// total = 1<<31 does not fit the int32 id space: a parent value of
	// exactly total would overflow int32(p)-1 to a negative id. The
	// size check must reject it outright.
	var buf bytes.Buffer
	buf.WriteString("SLGR\x01")
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], 0)
	buf.Write(tmp[:n])
	n = binary.PutUvarint(tmp[:], 1<<31)
	buf.Write(tmp[:n])
	if _, err := ReadFrom(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("expected implausible-size error for total = 1<<31")
	}
}

func TestReadFromRejectsParentCycle(t *testing.T) {
	// A structurally invalid forest (internal nodes 1 and 2 parenting
	// each other) must surface as an error, not a panic.
	var buf bytes.Buffer
	buf.WriteString("SLGR\x01")
	var tmp [binary.MaxVarintLen64]byte
	for _, x := range []uint64{1, 3, 2, 3, 2, 0} { // n=1 total=3 parents={1,2,1} edges=0
		n := binary.PutUvarint(tmp[:], x)
		buf.Write(tmp[:n])
	}
	if _, err := ReadFrom(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("expected structure error for a parent cycle")
	}
}

func TestSerializeLargeRandomSummary(t *testing.T) {
	// Round-trip a summary with many supernodes and both edge signs.
	parent := make([]int32, 150)
	for i := 0; i < 100; i++ {
		parent[i] = int32(100 + i/2)
	}
	for i := 100; i < 150; i++ {
		parent[i] = -1
	}
	var edges []Edge
	for i := int32(0); i < 100; i += 3 {
		edges = append(edges, Edge{A: i, B: (i + 7) % 100, Sign: 1})
		edges = append(edges, Edge{A: i, B: (i + 13) % 100, Sign: -1})
	}
	s := New(100, parent, edges)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadFrom(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if s2.PCount() != s.PCount() || s2.NCount() != s.NCount() || s2.HCount() != s.HCount() {
		t.Fatal("edge counts changed in round trip")
	}
}
