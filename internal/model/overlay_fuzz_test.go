package model

import (
	"testing"

	"repro/internal/graph"
)

// FuzzOverlayParity feeds random insert/delete streams through a
// DeltaOverlay (in fuzzer-chosen batch splits) and checks query parity
// — NeighborsOf, HasEdge, Decode — against a from-scratch rebuild of
// the mutated graph. The stream bytes encode (u, v, op) triples; the
// batch byte splits the stream into multiple Apply calls so the
// copy-on-write path is exercised at every prefix.
func FuzzOverlayParity(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 3, 1, 0, 1, 1}, byte(2))
	f.Add([]byte{5, 6, 0, 5, 6, 1, 5, 6, 0}, byte(1))
	f.Add([]byte{1, 2, 1, 3, 4, 0, 1, 2, 0, 9, 9, 0}, byte(3))

	const n = 16
	base := graph.NewBuilder(n)
	for v := int32(1); v < n; v++ {
		base.AddEdge(0, v) // star
		if v > 1 {
			base.AddEdge(v-1, v) // path through the leaves
		}
	}
	g := base.Build()
	cs := compileTrivial(g)

	f.Fuzz(func(t *testing.T, stream []byte, batch byte) {
		if len(stream) > 3*512 {
			t.Skip("stream too long")
		}
		batchSize := int(batch%8) + 1
		live := decodeToSets(g)
		o := NewOverlay(cs)
		var pending []EdgeUpdate
		flush := func() {
			if len(pending) == 0 {
				return
			}
			nxt, _, err := o.Apply(pending)
			if err != nil {
				t.Fatalf("Apply(%v): %v", pending, err)
			}
			checkOverlay(t, nxt)
			o = nxt
			pending = pending[:0]
		}
		for i := 0; i+2 < len(stream); i += 3 {
			u := int32(stream[i] % n)
			v := int32(stream[i+1] % n)
			if u == v {
				continue
			}
			del := stream[i+2]&1 == 1
			pending = append(pending, EdgeUpdate{U: u, V: v, Delete: del})
			mutateSet(live, u, v, del)
			if len(pending) >= batchSize {
				flush()
			}
		}
		flush()

		want := setsToGraph(live, n)
		c := o.AcquireCtx()
		defer o.ReleaseCtx(c)
		for v := int32(0); v < n; v++ {
			got := c.NeighborsOf(v)
			exp := want.Neighbors(v)
			if len(got) != len(exp) {
				t.Fatalf("NeighborsOf(%d) = %v, want %v", v, got, exp)
			}
			for i := range got {
				if got[i] != exp[i] {
					t.Fatalf("NeighborsOf(%d) = %v, want %v", v, got, exp)
				}
			}
			for u := int32(0); u < n; u++ {
				if o.HasEdge(v, u) != want.HasEdge(v, u) {
					t.Fatalf("HasEdge(%d,%d) = %v, want %v", v, u, o.HasEdge(v, u), want.HasEdge(v, u))
				}
			}
		}
		if dec := o.Decode(); dec.NumEdges() != want.NumEdges() {
			t.Fatalf("Decode has %d edges, want %d", dec.NumEdges(), want.NumEdges())
		}
	})
}
