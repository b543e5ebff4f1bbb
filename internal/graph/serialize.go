package graph

import (
	"bufio"
	"encoding/binary"
	"io"
)

// WriteBinary serializes the graph as a delta-varint CSR stream — the
// baseline storage format against which summary sizes are compared
// (the paper's Eq. (1) treats bits as roughly proportional to edge
// counts; SerializedSize makes that concrete).
//
// Format: magic "GCSR" | n uvarint | m uvarint | per vertex: degree
// uvarint followed by delta-encoded sorted neighbor ids.
func WriteBinary(w io.Writer, g *Graph) (int64, error) {
	bw := bufio.NewWriter(w)
	var count int64
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(x uint64) error {
		n := binary.PutUvarint(buf[:], x)
		nn, err := bw.Write(buf[:n])
		count += int64(nn)
		return err
	}
	if n, err := bw.Write([]byte("GCSR")); err != nil {
		return count + int64(n), err
	}
	count += 4
	if err := writeUvarint(uint64(g.NumNodes())); err != nil {
		return count, err
	}
	if err := writeUvarint(uint64(g.NumEdges())); err != nil {
		return count, err
	}
	for v := int32(0); v < int32(g.NumNodes()); v++ {
		nbrs := g.Neighbors(v)
		if err := writeUvarint(uint64(len(nbrs))); err != nil {
			return count, err
		}
		prev := int64(-1)
		for _, w := range nbrs {
			if err := writeUvarint(uint64(int64(w) - prev)); err != nil {
				return count, err
			}
			prev = int64(w)
		}
	}
	if err := bw.Flush(); err != nil {
		return count, err
	}
	return count, nil
}

// SerializedSize returns the number of bytes WriteBinary would emit.
func SerializedSize(g *Graph) int64 {
	n, err := WriteBinary(io.Discard, g)
	if err != nil {
		panic(err) // io.Discard cannot fail
	}
	return n
}
