package model

// This file implements the zero-copy "SLGC" v2 compiled-artifact layout:
// a fixed-width, 8-byte-aligned, little-endian encoding whose on-disk
// bytes ARE the CompiledSummary arrays. A file in this format can be
// memory-mapped and served without decoding or recompiling anything —
// FromMapped builds a CompiledSummary whose slices are views over the
// mapped bytes, after a structural validation pass that bounds-checks
// every offset array (mapped bytes are untrusted input).
//
// Layout (all integers little-endian, every section 8-byte aligned):
//
//	fixed header (64 bytes)
//	  [0:4]    magic "SLGC"
//	  [4]      format version (1)
//	  [5]      flags (0)
//	  [6:8]    metaLen  u16   length of the metadata string (algorithm tag)
//	  [8:16]   n        u64   leaf vertices
//	  [16:24]  total    u64   supernodes
//	  [24:32]  numEdges u64   superedges
//	  [32:40]  chainsLen u64  packed ancestor-chain entries
//	  [40:48]  incAdjLen u64  incidence-CSR entries
//	  [48:56]  vertsLen  u64  subnode-CSR entries
//	  [56:64]  cost      u64  encoding cost of the source artifact
//	meta bytes, zero-padded to an 8-byte boundary
//	section table: 9 entries x {offset u64, length u64}
//	header CRC block (8 bytes): CRC32-C over everything above, 4 pad bytes
//	sections (in table order, zero padding between):
//	  0 chainOff  int32 x (n+1)       5 edgeB    int32 x numEdges
//	  1 chains    int32 x chainsLen   6 edgeSign int8  x numEdges
//	  2 incOff    int32 x (total+1)   7 vertsOff int64 x (total+1)
//	  3 incAdj    int32 x incAdjLen   8 verts    int32 x vertsLen
//	  4 edgeA     int32 x numEdges
//	footer (8 bytes): CRC32-C over everything above, end magic "SLGC"
//
// The header CRC is always verified (O(1) in artifact size); the footer
// CRC covers the whole payload and is verified by VerifyChecksum —
// heap-loading readers call it (they stream the file anyway), while
// mmap boot skips it by design, relying on the structural validation
// sweep (zero-allocation sequential scans) for memory safety.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"unsafe"
)

// MappedMagic is the four-byte signature of a v2 compiled artifact.
const MappedMagic = "SLGC"

const (
	mappedVersion  = 1
	mappedHdrLen   = 64
	mappedSections = 9
	mappedTblLen   = mappedSections * 16
	mappedCRCLen   = 8
	mappedFtrLen   = 8
	// maxMetaLen bounds the metadata (algorithm tag) field.
	maxMetaLen = 512
)

// Sentinel errors for rejected v2 inputs. Wrapped errors carry detail;
// match with errors.Is.
var (
	// ErrMappedTruncated marks a file shorter than its header promises
	// (or missing its end marker): a torn or partial write.
	ErrMappedTruncated = errors.New("model: compiled artifact truncated")
	// ErrMappedMisaligned marks a byte slice whose base address is not
	// 8-byte aligned: the sections cannot be cast to typed slices.
	ErrMappedMisaligned = errors.New("model: compiled artifact bytes misaligned")
	// ErrMappedChecksum marks a CRC mismatch (header always, payload
	// via VerifyChecksum).
	ErrMappedChecksum = errors.New("model: compiled artifact checksum mismatch")
	// ErrMappedCorrupt marks structurally invalid content: out-of-order
	// sections, non-monotone offset arrays, out-of-range ids.
	ErrMappedCorrupt = errors.New("model: compiled artifact structurally invalid")
)

var castagnoliTable = crc32.MakeTable(crc32.Castagnoli)

// hostLittleEndian reports whether typed loads read the format's wire
// order directly. The zero-copy cast is only sound on little-endian
// hosts (amd64, arm64, riscv64, ...); big-endian hosts get a clear
// error instead of silently transposed integers.
//
//slugvet:unsafe reads one byte of a local uint16 to probe byte order; the pointee outlives the cast and no index is involved
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// aligned8 reports whether b's base address is 8-byte aligned, as the
// zero-copy int32/int64 views require.
//
//slugvet:unsafe address inspection only: the pointer is converted to uintptr for a modulus check and never converted back
func aligned8(b []byte) bool {
	return uintptr(unsafe.Pointer(&b[0]))%8 == 0
}

var errBigEndianHost = errors.New("model: compiled v2 artifacts require a little-endian host")

// MappedInfo is the artifact-level metadata a v2 file carries alongside
// the compiled arrays.
type MappedInfo struct {
	Algorithm string // producing algorithm's canonical name
	Cost      int64  // encoding cost of the source artifact
}

// pad8 rounds up to the next multiple of 8.
func pad8(x int) int { return (x + 7) &^ 7 }

// mappedLayout is the computed section placement for given array sizes.
type mappedLayout struct {
	metaLen   int
	tblOff    int // section table offset
	crcOff    int // header CRC block offset
	secOff    [mappedSections]int
	secLen    [mappedSections]int
	footerOff int
}

func computeLayout(metaLen, n, total, numEdges, chainsLen, incAdjLen, vertsLen int) mappedLayout {
	var lo mappedLayout
	lo.metaLen = metaLen
	lo.tblOff = mappedHdrLen + pad8(metaLen)
	lo.crcOff = lo.tblOff + mappedTblLen
	lo.secLen = [mappedSections]int{
		(n + 1) * 4, chainsLen * 4, (total + 1) * 4, incAdjLen * 4,
		numEdges * 4, numEdges * 4, numEdges * 1, (total + 1) * 8, vertsLen * 4,
	}
	off := lo.crcOff + mappedCRCLen
	for i := range lo.secOff {
		off = pad8(off)
		lo.secOff[i] = off
		off += lo.secLen[i]
	}
	lo.footerOff = pad8(off)
	return lo
}

func (lo *mappedLayout) fileSize() int { return lo.footerOff + mappedFtrLen }

// asBytes views a slice of fixed-size integers as its raw bytes
// (little-endian hosts only; callers gate on hostLittleEndian).
//
//slugvet:unsafe narrowing view: byte length equals the source slice's exact byte size, so no index can exceed the backing array
func asBytes[T int8 | int32 | int64](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

// viewAs views raw bytes as a slice of fixed-size integers, the length
// rounded down to whole elements.
//
//slugvet:unsafe widening view: the length rounds down to whole elements so the view never exceeds the backing bytes; callers gate 8-byte base alignment via aligned8
func viewAs[T int8 | int32 | int64](b []byte) []T {
	if len(b) == 0 {
		return nil
	}
	p := (*T)(unsafe.Pointer(&b[0]))
	return unsafe.Slice(p, len(b)/int(unsafe.Sizeof(*p)))
}

// AlignedBuffer returns a zeroed byte slice of length n whose base
// address is 8-byte aligned, as FromMapped requires. (mmap regions are
// page-aligned; heap readers use this to match.)
//
//slugvet:unsafe narrowing view over a fresh uint64 backing array sized to ceil(n/8)*8 >= n bytes, so the n-byte view stays in bounds
func AlignedBuffer(n int) []byte {
	if n == 0 {
		return nil
	}
	backing := make([]uint64, (n+7)/8)
	return unsafe.Slice((*byte)(unsafe.Pointer(&backing[0])), n)
}

// crcCountWriter tracks the running CRC32-C and byte count of
// everything written through it.
type crcCountWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (cw *crcCountWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.crc = crc32.Update(cw.crc, castagnoliTable, p[:n])
	cw.n += int64(n)
	if err == nil && n < len(p) {
		err = io.ErrShortWrite
	}
	return n, err
}

// WriteCompiled serializes cs in the v2 zero-copy layout, tagged with
// the producing algorithm and the source artifact's encoding cost. The
// emitted bytes round-trip through FromMapped into an identical
// CompiledSummary. Returns the number of bytes written (the exact file
// size of the artifact).
func WriteCompiled(w io.Writer, cs *CompiledSummary, info MappedInfo) (int64, error) {
	if !hostLittleEndian {
		return 0, errBigEndianHost
	}
	if len(info.Algorithm) > maxMetaLen {
		return 0, fmt.Errorf("model: algorithm tag %q too long", info.Algorithm)
	}
	lo := computeLayout(len(info.Algorithm), cs.n, cs.total,
		len(cs.edgeA), len(cs.chains), len(cs.incAdj), len(cs.verts))

	// Header + meta + section table, built in memory (small).
	head := make([]byte, lo.crcOff+mappedCRCLen)
	copy(head[0:4], MappedMagic)
	head[4] = mappedVersion
	head[5] = 0
	binary.LittleEndian.PutUint16(head[6:8], uint16(len(info.Algorithm)))
	binary.LittleEndian.PutUint64(head[8:16], uint64(cs.n))
	binary.LittleEndian.PutUint64(head[16:24], uint64(cs.total))
	binary.LittleEndian.PutUint64(head[24:32], uint64(len(cs.edgeA)))
	binary.LittleEndian.PutUint64(head[32:40], uint64(len(cs.chains)))
	binary.LittleEndian.PutUint64(head[40:48], uint64(len(cs.incAdj)))
	binary.LittleEndian.PutUint64(head[48:56], uint64(len(cs.verts)))
	binary.LittleEndian.PutUint64(head[56:64], uint64(info.Cost))
	copy(head[mappedHdrLen:], info.Algorithm)
	for i := 0; i < mappedSections; i++ {
		binary.LittleEndian.PutUint64(head[lo.tblOff+16*i:], uint64(lo.secOff[i]))
		binary.LittleEndian.PutUint64(head[lo.tblOff+16*i+8:], uint64(lo.secLen[i]))
	}
	hcrc := crc32.Checksum(head[:lo.crcOff], castagnoliTable)
	binary.LittleEndian.PutUint32(head[lo.crcOff:], hcrc)

	cw := &crcCountWriter{w: w}
	if _, err := cw.Write(head); err != nil {
		return cw.n, err
	}
	var zeros [8]byte
	sections := [mappedSections][]byte{
		asBytes(cs.chainOff), asBytes(cs.chains),
		asBytes(cs.incOff), asBytes(cs.incAdj),
		asBytes(cs.edgeA), asBytes(cs.edgeB), asBytes(cs.edgeSign),
		asBytes(cs.vertsOff), asBytes(cs.verts),
	}
	for i, sec := range sections {
		if pad := lo.secOff[i] - int(cw.n); pad > 0 {
			if _, err := cw.Write(zeros[:pad]); err != nil {
				return cw.n, err
			}
		}
		if _, err := cw.Write(sec); err != nil {
			return cw.n, err
		}
	}
	if pad := lo.footerOff - int(cw.n); pad > 0 {
		if _, err := cw.Write(zeros[:pad]); err != nil {
			return cw.n, err
		}
	}
	var ftr [mappedFtrLen]byte
	binary.LittleEndian.PutUint32(ftr[0:4], cw.crc)
	copy(ftr[4:8], MappedMagic)
	if _, err := cw.Write(ftr[:]); err != nil {
		return cw.n, err
	}
	return cw.n, nil
}

// corrupt wraps a detail message in ErrMappedCorrupt.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrMappedCorrupt, fmt.Sprintf(format, args...))
}

// FromMapped builds a CompiledSummary whose slices are zero-copy views
// over data — typically a memory-mapped v2 artifact. data must stay
// valid (and unmodified) for the lifetime of the returned summary; its
// base address must be 8-byte aligned (AlignedBuffer, or any mmap).
//
// The bytes are untrusted: the header CRC is verified and a structural
// validation sweep bounds-checks every offset array and id before the
// summary is returned, so queries on the result cannot index out of
// range no matter what the file contains. The full-payload footer CRC
// is NOT verified here (that would read the whole mapping and defeat
// O(1) boot); call VerifyChecksum when end-to-end integrity matters
// more than startup latency.
func FromMapped(data []byte) (*CompiledSummary, MappedInfo, error) {
	var info MappedInfo
	if !hostLittleEndian {
		return nil, info, errBigEndianHost
	}
	if len(data) < mappedHdrLen+mappedTblLen+mappedCRCLen+mappedFtrLen {
		return nil, info, fmt.Errorf("%w: %d bytes is shorter than the fixed envelope", ErrMappedTruncated, len(data))
	}
	if !aligned8(data) {
		return nil, info, fmt.Errorf("%w: base address %p", ErrMappedMisaligned, &data[0])
	}
	if string(data[0:4]) != MappedMagic {
		return nil, info, corrupt("bad magic %q", data[0:4])
	}
	if data[4] != mappedVersion {
		return nil, info, corrupt("unsupported version %d", data[4])
	}
	metaLen := int(binary.LittleEndian.Uint16(data[6:8]))
	if metaLen > maxMetaLen {
		return nil, info, corrupt("metadata length %d exceeds %d", metaLen, maxMetaLen)
	}
	// Verify the header CRC before trusting any size field: its offset
	// depends only on metaLen, which the CRC itself covers (a corrupted
	// metaLen moves the expected CRC location and fails the comparison).
	crcOff := mappedHdrLen + pad8(metaLen) + mappedTblLen
	if len(data) < crcOff+mappedCRCLen+mappedFtrLen {
		return nil, info, fmt.Errorf("%w: %d bytes is shorter than the header envelope", ErrMappedTruncated, len(data))
	}
	wantCRC := binary.LittleEndian.Uint32(data[crcOff:])
	if got := crc32.Checksum(data[:crcOff], castagnoliTable); got != wantCRC {
		return nil, info, fmt.Errorf("%w: header CRC %08x, want %08x", ErrMappedChecksum, got, wantCRC)
	}
	n := binary.LittleEndian.Uint64(data[8:16])
	total := binary.LittleEndian.Uint64(data[16:24])
	numEdges := binary.LittleEndian.Uint64(data[24:32])
	chainsLen := binary.LittleEndian.Uint64(data[32:40])
	incAdjLen := binary.LittleEndian.Uint64(data[40:48])
	vertsLen := binary.LittleEndian.Uint64(data[48:56])
	cost := int64(binary.LittleEndian.Uint64(data[56:64]))
	// Ids are int32 and chains/incAdj are indexed through int32 offsets;
	// vertsOff is int64 so the subnode CSR may exceed 2^31 entries.
	const maxIDs = 1<<31 - 2
	if n > total || total > maxIDs || numEdges > maxIDs ||
		chainsLen > maxIDs || incAdjLen > maxIDs || vertsLen > 1<<40 {
		return nil, info, corrupt("implausible sizes n=%d total=%d edges=%d chains=%d inc=%d verts=%d",
			n, total, numEdges, chainsLen, incAdjLen, vertsLen)
	}
	lo := computeLayout(metaLen, int(n), int(total), int(numEdges),
		int(chainsLen), int(incAdjLen), int(vertsLen))
	if len(data) < lo.fileSize() {
		return nil, info, fmt.Errorf("%w: header promises %d bytes, have %d", ErrMappedTruncated, lo.fileSize(), len(data))
	}
	if len(data) > lo.fileSize() {
		return nil, info, corrupt("trailing garbage: %d bytes past the footer", len(data)-lo.fileSize())
	}
	if string(data[lo.footerOff+4:lo.footerOff+8]) != MappedMagic {
		return nil, info, fmt.Errorf("%w: end marker missing", ErrMappedTruncated)
	}
	// The section table must match the canonical layout exactly: every
	// offset 8-aligned, in order, with the length the header implies.
	for i := 0; i < mappedSections; i++ {
		off := binary.LittleEndian.Uint64(data[lo.tblOff+16*i:])
		ln := binary.LittleEndian.Uint64(data[lo.tblOff+16*i+8:])
		if off != uint64(lo.secOff[i]) || ln != uint64(lo.secLen[i]) {
			return nil, info, corrupt("section %d at [%d,+%d), want [%d,+%d)", i, off, ln, lo.secOff[i], lo.secLen[i])
		}
	}
	info.Algorithm = string(data[mappedHdrLen : mappedHdrLen+metaLen])
	info.Cost = cost

	sec := func(i int) []byte { return data[lo.secOff[i] : lo.secOff[i]+lo.secLen[i]] }
	cs := &CompiledSummary{
		n:        int(n),
		total:    int(total),
		chainOff: viewAs[int32](sec(0)),
		chains:   viewAs[int32](sec(1)),
		incOff:   viewAs[int32](sec(2)),
		incAdj:   viewAs[int32](sec(3)),
		edgeA:    viewAs[int32](sec(4)),
		edgeB:    viewAs[int32](sec(5)),
		edgeSign: viewAs[int8](sec(6)),
		vertsOff: viewAs[int64](sec(7)),
		verts:    viewAs[int32](sec(8)),
	}
	if err := cs.validateMapped(); err != nil {
		return nil, info, err
	}
	cs.adjPlan = sync.OnceValue(cs.buildAdjPlan)
	return cs, info, nil
}

// validateMapped is the structural sweep run before a mapped summary is
// first used: every offset array must be monotone and in bounds, and
// every stored id must be in range, so the query paths (which index
// without checks for speed) cannot fault on hostile bytes, and every
// incidence list must name its node's own edges once each, so they
// cannot count an edge twice or invent one. The sweeps are linear and
// allocation-free except for one int32 per supernode used to
// cross-check hierarchy consistency; all but the incidence one read
// sequentially.
func (cs *CompiledSummary) validateMapped() error {
	n, total := int32(cs.n), int32(cs.total)
	m := int32(len(cs.edgeA))

	// Ancestor chains: chainOff monotone over [0, len(chains)], each
	// chain non-empty, leaf-first, internal ancestors after the leaf.
	if cs.chainOff[0] != 0 || cs.chainOff[n] != int32(len(cs.chains)) {
		return corrupt("chainOff spans [%d,%d], want [0,%d]", cs.chainOff[0], cs.chainOff[n], len(cs.chains))
	}
	// parent cross-check: chains assert ancestor relationships; they
	// must agree with each other (one parent per supernode) and cover
	// every internal supernode, or reconstruction (ToSummary) and cost
	// accounting would diverge from what queries serve.
	parent := make([]int32, total)
	for i := range parent {
		parent[i] = -2 // unseen
	}
	for v := int32(0); v < n; v++ {
		lo, hi := cs.chainOff[v], cs.chainOff[v+1]
		if lo >= hi {
			return corrupt("leaf %d has empty ancestor chain", v)
		}
		if hi < lo || hi > int32(len(cs.chains)) {
			return corrupt("chainOff[%d..%d] = [%d,%d) out of bounds", v, v+1, lo, hi)
		}
		chain := cs.chains[lo:hi]
		if chain[0] != v {
			return corrupt("chain of leaf %d starts at %d", v, chain[0])
		}
		for i := 1; i < len(chain); i++ {
			if chain[i] < n || chain[i] >= total {
				return corrupt("chain of leaf %d has non-internal ancestor %d", v, chain[i])
			}
		}
		for i := range chain {
			p := int32(-1)
			if i+1 < len(chain) {
				p = chain[i+1]
			}
			switch parent[chain[i]] {
			case -2:
				parent[chain[i]] = p
			case p:
			default:
				return corrupt("supernode %d has conflicting parents %d and %d", chain[i], parent[chain[i]], p)
			}
		}
	}
	for x := n; x < total; x++ {
		if parent[x] == -2 {
			return corrupt("internal supernode %d appears in no ancestor chain", x)
		}
	}

	// Superedges: canonical endpoints, valid signs.
	ends := int64(0) // incidence entries the edges call for
	for i := int32(0); i < m; i++ {
		a, b := cs.edgeA[i], cs.edgeB[i]
		if a < 0 || b >= total || a > b {
			return corrupt("edge %d endpoints (%d,%d) invalid for %d supernodes", i, a, b, total)
		}
		if s := cs.edgeSign[i]; s != 1 && s != -1 {
			return corrupt("edge %d has sign %d", i, s)
		}
		ends += 2
		if a == b {
			ends--
		}
	}

	// Incidence CSR: every edge is listed once under each of its
	// endpoints and nowhere else, each list ascending as Compile writes
	// it. The queries count an edge once per listing and take its other
	// end from the listing node.
	if cs.incOff[0] != 0 || cs.incOff[total] != int32(len(cs.incAdj)) {
		return corrupt("incOff spans [%d,%d], want [0,%d]", cs.incOff[0], cs.incOff[total], len(cs.incAdj))
	}
	for x := int32(0); x < total; x++ {
		if cs.incOff[x+1] < cs.incOff[x] {
			return corrupt("incOff not monotone at supernode %d", x)
		}
	}
	if ends != int64(len(cs.incAdj)) {
		return corrupt("%d incidence entries for %d edge endpoints", len(cs.incAdj), ends)
	}
	for x := int32(0); x < total; x++ {
		prev := int32(-1)
		for _, ei := range cs.incAdj[cs.incOff[x]:cs.incOff[x+1]] {
			if ei <= prev || ei >= m || (cs.edgeA[ei] != x && cs.edgeB[ei] != x) {
				return corrupt("supernode %d lists edge %d of %d out of order or not its own", x, ei, m)
			}
			prev = ei
		}
	}

	// Subnode CSR.
	if cs.vertsOff[0] != 0 || cs.vertsOff[total] != int64(len(cs.verts)) {
		return corrupt("vertsOff spans [%d,%d], want [0,%d]", cs.vertsOff[0], cs.vertsOff[total], len(cs.verts))
	}
	for x := int32(0); x < total; x++ {
		if cs.vertsOff[x+1] < cs.vertsOff[x] {
			return corrupt("vertsOff not monotone at supernode %d", x)
		}
	}
	for i, v := range cs.verts {
		if v < 0 || v >= n {
			return corrupt("subnode entry %d references leaf %d of %d", i, v, n)
		}
	}
	return nil
}

// VerifyChecksum verifies the footer CRC32-C over the full payload of a
// v2 artifact. It reads every byte (O(size)); mmap boot paths skip it
// by default and heap loaders run it as part of Load.
func VerifyChecksum(data []byte) error {
	if len(data) < mappedHdrLen+mappedTblLen+mappedCRCLen+mappedFtrLen {
		return fmt.Errorf("%w: %d bytes is shorter than the fixed envelope", ErrMappedTruncated, len(data))
	}
	footerOff := len(data) - mappedFtrLen
	want := binary.LittleEndian.Uint32(data[footerOff:])
	if got := crc32.Checksum(data[:footerOff], castagnoliTable); got != want {
		return fmt.Errorf("%w: payload CRC %08x, want %08x", ErrMappedChecksum, got, want)
	}
	return nil
}

// ToSummary reconstructs the hierarchical Summary the compiled form was
// built from: parent pointers are recovered from the ancestor chains
// (every supernode lies on some leaf's chain) and the superedge arrays
// are re-zipped. The reconstruction is exact — recompiling the result
// yields identical arrays, and serializing it reproduces the original
// model stream byte for byte — which is what lets a v2 artifact be
// exported back to the portable v1 envelope without having kept the
// uncompiled model around.
func (cs *CompiledSummary) ToSummary() *Summary {
	parent, _, _ := cs.forest()
	edges := make([]Edge, len(cs.edgeA))
	for i := range edges {
		edges[i] = Edge{A: cs.edgeA[i], B: cs.edgeB[i], Sign: cs.edgeSign[i]}
	}
	return New(cs.n, parent, edges)
}
