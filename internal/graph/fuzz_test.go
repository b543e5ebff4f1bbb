package graph

import (
	"strings"
	"testing"
)

// FuzzReadEdgeList ensures the parser never panics and that everything
// it accepts round-trips through WriteEdgeList.
func FuzzReadEdgeList(f *testing.F) {
	f.Add("0 1\n1 2\n")
	f.Add("# comment\n5 5\n")
	f.Add("")
	f.Add("999999 3\n")
	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 4096 {
			return
		}
		g, err := ReadEdgeList(strings.NewReader(input))
		if err != nil {
			return
		}
		var sb strings.Builder
		if err := WriteEdgeList(&sb, g); err != nil {
			t.Fatalf("write failed on accepted input: %v", err)
		}
		g2, err := ReadEdgeList(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("reparse failed: %v", err)
		}
		if g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip lost edges: %d vs %d", g2.NumEdges(), g.NumEdges())
		}
	})
}
