package graph

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ReadEdgeList parses a whitespace-separated edge list ("u v" per line).
// Lines starting with '#' or '%' are comments. Direction, duplicates and
// self-loops are normalized away by the Builder.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	b := NewBuilder(0)
	sc := bufio.NewScanner(r)
	// Real-world edge lists occasionally carry megabyte-long comment or
	// metadata lines; start with a modest buffer but allow lines up to
	// 1 GiB rather than failing with bufio.ErrTooLong at 1 MiB.
	sc.Buffer(make([]byte, 64<<10), 1<<30)
	lineNo, maxLine := 0, 0
	maxID := int64(-1)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: expected \"u v\", got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %v", lineNo, err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graph: line %d: negative vertex id", lineNo)
		}
		if u != v && max(u, v) > maxID {
			maxID, maxLine = max(u, v), lineNo
		}
		b.AddEdge(int32(u), int32(v))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// The largest id sizes the graph's arrays: refuse one so far beyond
	// the edges listed that Build would allocate gigabytes for a few
	// lines. Distinct edges, not lines, bound it, so a graph's own
	// WriteEdgeList output always reads back.
	if limit := int64(1<<20 + 64*b.dedup()); maxID >= limit {
		return nil, fmt.Errorf("graph: line %d: vertex id %d is out of proportion to the edges listed (ids must stay below %d)", maxLine, maxID, limit)
	}
	return b.Build(), nil
}

// LoadEdgeList reads an edge-list file from disk.
func LoadEdgeList(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //slugvet:ok syncerr (read-only descriptor; close failure cannot corrupt data already read)
	return ReadEdgeList(f)
}

// WriteEdgeList writes the graph as "u v" lines with u < v.
func WriteEdgeList(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	var err error
	g.ForEachEdge(func(u, v int32) {
		if err == nil {
			_, err = fmt.Fprintf(bw, "%d %d\n", u, v)
		}
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// SaveEdgeList writes the graph to a file on disk.
func SaveEdgeList(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteEdgeList(f, g); err != nil {
		return errors.Join(err, f.Close())
	}
	return f.Close()
}
