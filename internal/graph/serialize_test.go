package graph

import (
	"bytes"
	"io"
	"testing"
)

func TestSerializedSizeMatchesWrite(t *testing.T) {
	g := BarabasiAlbert(100, 2, 3)
	var buf bytes.Buffer
	n, _ := WriteBinary(&buf, g)
	if got := SerializedSize(g); got != n {
		t.Fatalf("SerializedSize = %d, WriteBinary wrote %d", got, n)
	}
}

func TestDeltaEncodingCompact(t *testing.T) {
	// Delta-varint CSR of a clique should take roughly 2 bytes per
	// directed edge slot or less (small deltas).
	var edges [][2]int32
	for i := int32(0); i < 50; i++ {
		for j := i + 1; j < 50; j++ {
			edges = append(edges, [2]int32{i, j})
		}
	}
	g := FromEdges(50, edges)
	size := SerializedSize(g)
	if size > 2*2*g.NumEdges() {
		t.Fatalf("clique serialized to %d bytes for %d edges", size, g.NumEdges())
	}
	if _, err := WriteBinary(io.Discard, g); err != nil {
		t.Fatal(err)
	}
}
