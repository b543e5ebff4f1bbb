package model

import (
	"bytes"
	"testing"
)

// FuzzReadFrom feeds arbitrary bytes through the deserializer: corrupt
// input must produce an error (never a panic or a silently wrong
// summary), and any input that decodes must survive a write/read round
// trip unchanged.
func FuzzReadFrom(f *testing.F) {
	seed := func(s *Summary) []byte {
		var buf bytes.Buffer
		s.WriteTo(&buf)
		return buf.Bytes()
	}
	f.Add(seed(fig2LikeSummary()))
	f.Add(seed(New(2, []int32{-1, -1}, nil)))
	f.Add(seed(New(5, []int32{5, 5, 5, 5, 5, -1}, []Edge{{A: 5, B: 5, Sign: 1}})))
	// n = 1, total = 3, parents {1, 2, 1}: a cycle between the internal
	// supernodes 1 and 2, which New rejects.
	f.Add([]byte("SLGR\x01\x01\x03\x02\x03\x02\x00"))
	f.Add([]byte("SLGR\x01"))
	f.Add([]byte("SLGR\x01\x02\x03\x03\x00\x00"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := s.WriteTo(&buf); err != nil {
			t.Fatalf("re-serializing a decoded summary: %v", err)
		}
		s2, err := ReadFrom(&buf)
		if err != nil {
			t.Fatalf("re-reading a re-serialized summary: %v", err)
		}
		if s2.N != s.N || s2.NumSupernodes() != s.NumSupernodes() ||
			s2.PCount() != s.PCount() || s2.NCount() != s.NCount() || s2.HCount() != s.HCount() {
			t.Fatalf("round trip changed shape: N %d/%d cost %d/%d",
				s.N, s2.N, s.Cost(), s2.Cost())
		}
		// The compiled query layer must agree with the definition on
		// whatever forest the fuzzer produced, if it is small enough to
		// expand.
		if s.N <= 32 && len(s.Edges) <= 256 {
			checkAgainstOracle(t, "decoded", s, s.Compile())
		}
	})
}

// fuzzHierarchy decodes bytes into a valid hierarchy: data[0] and
// data[1] size the forest (up to 24 leaves and 12 internal supernodes),
// the next byte per supernode picks its parent among the larger ids (or
// none), and the rest are (a, b, op) triples. op bit 0 is the sign and
// bits 1-2 the shape: a random pair, a self-loop on a, a with one of its
// ancestors (a nested pair), or a copy of the previous edge.
// Internal supernodes that end up without leaves are dropped.
func fuzzHierarchy(data []byte) *Summary {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 1 + int(next())%24
	total := n + int(next())%13
	parent := make([]int32, total)
	for x := range parent {
		parent[x] = -1
		if b := int(next()); b%4 != 0 {
			lo := max(x+1, n)
			if lo < total {
				parent[x] = int32(lo + b%(total-lo))
			}
		}
	}
	// Parents have larger ids, so one ascending pass finds every
	// supernode with a leaf below it; renumber those.
	keep := make([]bool, total)
	id := make([]int32, total)
	next32 := int32(n)
	for x := range parent {
		keep[x] = keep[x] || x < n
		if !keep[x] {
			continue
		}
		if x >= n {
			id[x] = next32
			next32++
		} else {
			id[x] = int32(x)
		}
		if p := parent[x]; p >= 0 {
			keep[p] = true
		}
	}
	forest := make([]int32, next32)
	for x, p := range parent {
		if keep[x] {
			forest[id[x]] = -1
			if p >= 0 {
				forest[id[x]] = id[p]
			}
		}
	}
	var edges []Edge
	for len(data) >= 3 {
		a, b, op := int32(next())%next32, int32(next()), next()
		sign := int8(1 - 2*int(op&1))
		switch (op >> 1) & 3 {
		case 0:
			b %= next32
		case 1:
			b = a
		case 2:
			var chain []int32
			for x := a; x >= 0; x = forest[x] {
				chain = append(chain, x)
			}
			b = chain[int(b)%len(chain)]
		case 3:
			if len(edges) > 0 {
				e := edges[len(edges)-1]
				a, b = e.A, e.B
			} else {
				b %= next32
			}
		}
		edges = append(edges, Edge{A: a, B: b, Sign: sign})
	}
	return New(n, forest, edges)
}

// FuzzQueryParity holds the compiled engine to the model's definition
// (oracle_test.go) on fuzzer-built hierarchies: NeighborsOf and HasEdge
// on every vertex and pair, through one reused context, and Decode.
func FuzzQueryParity(f *testing.F) {
	// 7 = {0,1} under 8 = {7,2,3} under 9 = {8,4,6}, leaf 5 a root: a
	// self-loop on 9, the n-edges (7,8) and (0,7) nested under it, the
	// p-edge (5,9) twice, an n-edge self-loop on 8, and (3,4) as a p-edge
	// and an n-edge.
	f.Add([]byte{6, 3, 3, 3, 1, 1, 2, 0, 2, 2, 1, 0,
		9, 0, 2, 7, 1, 5, 0, 1, 5, 5, 9, 0, 0, 0, 6, 8, 0, 3, 3, 4, 0, 3, 4, 1})
	f.Add([]byte{4, 2, 1, 1, 1, 1, 1, 0, 5, 0, 2, 4, 1, 4, 5, 7, 0, 0, 6})
	f.Add([]byte{10, 12, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22,
		10, 11, 0, 12, 12, 2, 0, 2, 4, 3, 5, 1, 0, 0, 6, 13, 1, 5})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*256 {
			t.Skip("too many edges")
		}
		s := fuzzHierarchy(data)
		checkAgainstOracle(t, "fuzz", s, s.Compile())
	})
}
