package model

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/graph"
)

// writeV2 serializes a compiled summary into an aligned buffer, the
// form FromMapped accepts.
func writeV2(t *testing.T, cs *CompiledSummary, info MappedInfo) []byte {
	t.Helper()
	var buf bytes.Buffer
	n, err := WriteCompiled(&buf, cs, info)
	if err != nil {
		t.Fatalf("WriteCompiled: %v", err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteCompiled reported %d bytes, wrote %d", n, buf.Len())
	}
	data := AlignedBuffer(buf.Len())
	copy(data, buf.Bytes())
	return data
}

func TestMappedRoundTrip(t *testing.T) {
	for name, s := range compiledCases() {
		t.Run(name, func(t *testing.T) {
			cs := s.Compile()
			info := MappedInfo{Algorithm: "slugger", Cost: 12345}
			data := writeV2(t, cs, info)

			if err := VerifyChecksum(data); err != nil {
				t.Fatalf("VerifyChecksum on a fresh artifact: %v", err)
			}
			got, gotInfo, err := FromMapped(data)
			if err != nil {
				t.Fatalf("FromMapped: %v", err)
			}
			if gotInfo != info {
				t.Fatalf("info round-trip: got %+v, want %+v", gotInfo, info)
			}
			if got.NumNodes() != cs.NumNodes() || got.NumSupernodes() != cs.NumSupernodes() ||
				got.NumSuperedges() != cs.NumSuperedges() {
				t.Fatalf("sizes: got (%d,%d,%d), want (%d,%d,%d)",
					got.NumNodes(), got.NumSupernodes(), got.NumSuperedges(),
					cs.NumNodes(), cs.NumSupernodes(), cs.NumSuperedges())
			}
			checkAgainstOracle(t, name, s, got)
		})
	}
}

func TestMappedToSummaryExact(t *testing.T) {
	for name, s := range compiledCases() {
		t.Run(name, func(t *testing.T) {
			data := writeV2(t, s.Compile(), MappedInfo{Algorithm: "slugger"})
			cs, _, err := FromMapped(data)
			if err != nil {
				t.Fatalf("FromMapped: %v", err)
			}
			back := cs.ToSummary()

			var want, got bytes.Buffer
			if _, err := s.WriteTo(&want); err != nil {
				t.Fatalf("serializing original: %v", err)
			}
			if _, err := back.WriteTo(&got); err != nil {
				t.Fatalf("serializing reconstruction: %v", err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatalf("ToSummary is not byte-exact: %d vs %d bytes", want.Len(), got.Len())
			}
		})
	}
}

func TestMappedRejectsMisaligned(t *testing.T) {
	s := compiledCases()["nested"]
	data := writeV2(t, s.Compile(), MappedInfo{})
	// Shift the window by one byte off the aligned base: same content
	// reachability, unsound base address.
	shifted := AlignedBuffer(len(data) + 1)[1:]
	copy(shifted, data)
	if _, _, err := FromMapped(shifted); !errors.Is(err, ErrMappedMisaligned) {
		t.Fatalf("misaligned base: got %v, want ErrMappedMisaligned", err)
	}
}

func TestMappedRejectsTruncated(t *testing.T) {
	s := compiledCases()["deep"]
	data := writeV2(t, s.Compile(), MappedInfo{Algorithm: "slugger"})
	for _, cut := range []int{1, 8, mappedFtrLen, len(data) / 2, len(data) - mappedHdrLen} {
		trunc := AlignedBuffer(len(data) - cut)
		copy(trunc, data[:len(data)-cut])
		if _, _, err := FromMapped(trunc); !errors.Is(err, ErrMappedTruncated) {
			t.Fatalf("cut %d bytes: got %v, want ErrMappedTruncated", cut, err)
		}
	}
	// Trailing garbage is corruption, not truncation.
	grown := AlignedBuffer(len(data) + 16)
	copy(grown, data)
	if _, _, err := FromMapped(grown); !errors.Is(err, ErrMappedCorrupt) {
		t.Fatalf("trailing garbage: got %v, want ErrMappedCorrupt", err)
	}
}

func TestMappedRejectsHeaderCorruption(t *testing.T) {
	s := compiledCases()["nested"]
	pristine := writeV2(t, s.Compile(), MappedInfo{Algorithm: "slugger"})

	flip := func(off int) []byte {
		d := AlignedBuffer(len(pristine))
		copy(d, pristine)
		d[off] ^= 0xff
		return d
	}
	// A flipped size field must fail the header CRC before any section
	// is interpreted.
	if _, _, err := FromMapped(flip(9)); !errors.Is(err, ErrMappedChecksum) {
		t.Fatalf("flipped size field: got %v, want ErrMappedChecksum", err)
	}
	// A flipped magic fails before the CRC is even consulted.
	if _, _, err := FromMapped(flip(0)); !errors.Is(err, ErrMappedCorrupt) {
		t.Fatalf("flipped magic: got %v, want ErrMappedCorrupt", err)
	}
	// An unsupported version is rejected explicitly.
	bad := AlignedBuffer(len(pristine))
	copy(bad, pristine)
	bad[4] = 99
	if _, _, err := FromMapped(bad); !errors.Is(err, ErrMappedCorrupt) {
		t.Fatalf("future version: got %v, want ErrMappedCorrupt", err)
	}
}

func TestMappedPayloadChecksum(t *testing.T) {
	s := compiledCases()["deep"]
	data := writeV2(t, s.Compile(), MappedInfo{Algorithm: "slugger"})

	// Flip one payload byte inside a section: the O(1) header checks
	// cannot see it, VerifyChecksum must.
	off := len(data) - mappedFtrLen - 5
	data[off] ^= 0x01
	if err := VerifyChecksum(data); !errors.Is(err, ErrMappedChecksum) {
		t.Fatalf("payload flip: got %v, want ErrMappedChecksum", err)
	}
	data[off] ^= 0x01
	if err := VerifyChecksum(data); err != nil {
		t.Fatalf("restored payload: %v", err)
	}
}

// TestMappedRejectsStructuralCorruption flips section bytes in ways the
// checksums on the mmap boot path never examine (payload CRC is skipped
// there by design) and demands the structural sweep catches every one.
func TestMappedRejectsStructuralCorruption(t *testing.T) {
	s := compiledCases()["deep"]
	cs := s.Compile()
	pristine := writeV2(t, cs, MappedInfo{Algorithm: "slugger"})
	lo := computeLayout(len("slugger"), cs.n, cs.total,
		len(cs.edgeA), len(cs.chains), len(cs.incAdj), len(cs.verts))

	cases := map[string]func(d []byte){
		"chainOff-nonzero-start": func(d []byte) { d[lo.secOff[0]] = 1 },
		"chain-out-of-range": func(d []byte) {
			// Second entry of leaf 0's chain -> absurd supernode id.
			off := lo.secOff[1] + 4
			d[off], d[off+1], d[off+2], d[off+3] = 0xff, 0xff, 0xff, 0x7f
		},
		"incidence-edge-out-of-range": func(d []byte) {
			off := lo.secOff[3]
			d[off], d[off+1], d[off+2], d[off+3] = 0xff, 0xff, 0xff, 0x7f
		},
		"edge-sign-zero": func(d []byte) { d[lo.secOff[6]] = 0 },
		"verts-out-of-range": func(d []byte) {
			off := lo.secOff[8]
			d[off], d[off+1], d[off+2], d[off+3] = 0xff, 0xff, 0xff, 0x7f
		},
		"vertsOff-non-monotone": func(d []byte) {
			// vertsOff[1] underflows below vertsOff[0] = 0.
			off := lo.secOff[7] + 8
			for i := 0; i < 8; i++ {
				d[off+i] = 0xff
			}
		},
	}
	for name, mutate := range cases {
		t.Run(name, func(t *testing.T) {
			d := AlignedBuffer(len(pristine))
			copy(d, pristine)
			mutate(d)
			if _, _, err := FromMapped(d); !errors.Is(err, ErrMappedCorrupt) {
				t.Fatalf("got %v, want ErrMappedCorrupt", err)
			}
		})
	}
}

// TestMappedRejectsInconsistentIncidence: an incidence list that names
// an edge twice, or names an edge the supernode is not an endpoint of,
// stays in bounds but would make the queries count an edge twice or
// read a made-up one, so FromMapped must refuse it.
func TestMappedRejectsInconsistentIncidence(t *testing.T) {
	// Leaves 0-1-2 on a path: incAdj is [0 | 0 1 | 1].
	cs := New(3, []int32{-1, -1, -1}, []Edge{{A: 0, B: 1, Sign: 1}, {A: 1, B: 2, Sign: 1}}).Compile()
	if !int32sEqual(cs.incAdj, []int32{0, 0, 1, 1}) {
		t.Fatalf("incAdj = %v, want [0 0 1 1] (layout moved?)", cs.incAdj)
	}
	pristine := writeV2(t, cs, MappedInfo{})
	lo := computeLayout(0, cs.n, cs.total, len(cs.edgeA), len(cs.chains), len(cs.incAdj), len(cs.verts))
	cases := map[string]struct{ entry, edge int }{
		"listed-twice":     {2, 0}, // leaf 1 lists edge 0 twice, edge 1 never
		"not-its-endpoint": {0, 1}, // leaf 0 lists edge {1,2}
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			d := AlignedBuffer(len(pristine))
			copy(d, pristine)
			binary.LittleEndian.PutUint32(d[lo.secOff[3]+4*c.entry:], uint32(c.edge))
			if _, _, err := FromMapped(d); !errors.Is(err, ErrMappedCorrupt) {
				t.Fatalf("got %v, want ErrMappedCorrupt", err)
			}
		})
	}
}

// TestMappedDecodeMatches pins the end-to-end semantics: decoding a
// mapped summary reproduces the graph the original summary decodes to.
func TestMappedDecodeMatches(t *testing.T) {
	for name, s := range compiledCases() {
		t.Run(name, func(t *testing.T) {
			data := writeV2(t, s.Compile(), MappedInfo{})
			cs, _, err := FromMapped(data)
			if err != nil {
				t.Fatalf("FromMapped: %v", err)
			}
			if !graph.Equal(cs.Decode(), newOracle(s).graph()) {
				t.Fatal("decoded mapped artifact differs from the definition")
			}
		})
	}
}
