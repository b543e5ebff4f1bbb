package model

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
)

// Binary serialization of hierarchical summaries: the payload encoding
// behind pkg/slug's "SLGA" envelope (and, through it, sharded files).
// It is not a persisted form on its own — files are written and read
// by pkg/slug. The format is a compact varint stream:
//
//	magic "SLGR" | version u8
//	n varint | numSupernodes varint
//	parent deltas (parent+1, varint) per supernode
//	numEdges varint | per edge: A varint, B varint, sign byte
//
// The format stores exactly (S, P+, P-, H); subnode lists and indexes
// are rebuilt on load.

const (
	magic   = "SLGR"
	version = 1
)

// WriteTo serializes the summary. It returns the number of bytes
// written.
func (s *Summary) WriteTo(w io.Writer) (int64, error) {
	bw := bufio.NewWriter(w)
	var count int64
	write := func(p []byte) error {
		n, err := bw.Write(p)
		count += int64(n)
		return err
	}
	var buf [binary.MaxVarintLen64]byte
	writeUvarint := func(x uint64) error {
		n := binary.PutUvarint(buf[:], x)
		return write(buf[:n])
	}
	if err := write([]byte(magic)); err != nil {
		return count, err
	}
	if err := write([]byte{version}); err != nil {
		return count, err
	}
	if err := writeUvarint(uint64(s.N)); err != nil {
		return count, err
	}
	if err := writeUvarint(uint64(len(s.Parent))); err != nil {
		return count, err
	}
	for _, p := range s.Parent {
		if err := writeUvarint(uint64(p + 1)); err != nil {
			return count, err
		}
	}
	if err := writeUvarint(uint64(len(s.Edges))); err != nil {
		return count, err
	}
	for _, e := range s.Edges {
		if err := writeUvarint(uint64(e.A)); err != nil {
			return count, err
		}
		if err := writeUvarint(uint64(e.B)); err != nil {
			return count, err
		}
		sign := byte(0)
		if e.Sign > 0 {
			sign = 1
		}
		if err := write([]byte{sign}); err != nil {
			return count, err
		}
	}
	if err := bw.Flush(); err != nil {
		return count, err
	}
	return count, nil
}

// ReadFrom deserializes a summary written by WriteTo. Corrupt input
// yields an error, never a silently wrong summary: sizes, parent ids,
// edge endpoints and sign bytes are validated, and structurally invalid
// forests (cycles, childless internal supernodes) are rejected.
func ReadFrom(r io.Reader) (s *Summary, err error) {
	// New panics on structurally malformed forests the field-level
	// checks below can't see (e.g. parent cycles); surface those as
	// decode errors rather than crashing on corrupt files.
	defer func() {
		if rec := recover(); rec != nil {
			s, err = nil, fmt.Errorf("model: invalid summary structure: %v", rec)
		}
	}()
	br := bufio.NewReader(r)
	head := make([]byte, len(magic)+1)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("model: reading header: %w", err)
	}
	if string(head[:len(magic)]) != magic {
		return nil, fmt.Errorf("model: bad magic %q", head[:len(magic)])
	}
	if head[len(magic)] != version {
		return nil, fmt.Errorf("model: unsupported version %d", head[len(magic)])
	}
	readUvarint := func() (uint64, error) { return binary.ReadUvarint(br) }

	n64, err := readUvarint()
	if err != nil {
		return nil, fmt.Errorf("model: reading n: %w", err)
	}
	total, err := readUvarint()
	if err != nil {
		return nil, fmt.Errorf("model: reading supernode count: %w", err)
	}
	// Supernode ids must fit in int32, so total == 1<<31 is already too
	// large: a stored parent value of exactly total would pass a naive
	// `p > total` check and overflow int32(p)-1 to a negative id,
	// silently corrupting the forest.
	if total >= 1<<31 || n64 > total {
		return nil, fmt.Errorf("model: implausible sizes n=%d total=%d", n64, total)
	}
	// Grow incrementally rather than trusting the declared count: a
	// corrupt length prefix must not provoke a giant allocation.
	parent := make([]int32, 0, min(total, 1<<20))
	for i := uint64(0); i < total; i++ {
		p, err := readUvarint()
		if err != nil {
			return nil, fmt.Errorf("model: reading parent %d: %w", i, err)
		}
		// Stored values are parent+1, so the valid range is [0, total]
		// (0 encodes a root).
		if p > total {
			return nil, fmt.Errorf("model: parent entry %d = %d out of range [0,%d]", i, p, total)
		}
		parent = append(parent, int32(p)-1)
	}
	numEdges, err := readUvarint()
	if err != nil {
		return nil, fmt.Errorf("model: reading edge count: %w", err)
	}
	edges := make([]Edge, 0, min(numEdges, 1<<20))
	for i := uint64(0); i < numEdges; i++ {
		a, err := readUvarint()
		if err != nil {
			return nil, fmt.Errorf("model: reading edge %d: %w", i, err)
		}
		b, err := readUvarint()
		if err != nil {
			return nil, fmt.Errorf("model: reading edge %d: %w", i, err)
		}
		sign, err := br.ReadByte()
		if err != nil {
			return nil, fmt.Errorf("model: reading edge %d sign: %w", i, err)
		}
		e := Edge{A: int32(a), B: int32(b)}
		// WriteTo emits exactly 0 (n-edge) or 1 (p-edge); anything else
		// is corruption, not a sign to guess at.
		switch sign {
		case 0:
			e.Sign = -1
		case 1:
			e.Sign = 1
		default:
			return nil, fmt.Errorf("model: edge %d has invalid sign byte %d", i, sign)
		}
		if a >= total || b >= total {
			return nil, fmt.Errorf("model: edge %d endpoint out of range", i)
		}
		edges = append(edges, e)
	}
	return New(int(n64), parent, edges), nil
}
