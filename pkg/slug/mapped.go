package slug

// Zero-copy v2 artifacts. SaveCompiled persists an artifact's compiled
// form in the SLGC layout — a fixed-width, aligned, little-endian file
// whose bytes are the CSR query-engine arrays — and OpenMapped boots a
// server straight off such a file: the file is memory-mapped, a
// structural validation pass bounds-checks the untrusted bytes, and the
// first query runs without decoding or recompiling anything. Restart
// cost stops growing with summary size.
//
// The portable interchange format remains the v1 SLGA envelope
// ([Save]/[Load]); SLGC is the serving format. A Mapped artifact
// exports back to v1 through WriteTo (byte-identical to the artifact it
// was compiled from), so the two formats round-trip freely.

import (
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/wal"
)

// compiledMagic is the v2 zero-copy artifact signature.
const compiledMagic = model.MappedMagic

// Sentinel errors for rejected v2 compiled artifacts; match with
// errors.Is. Wrapped errors carry the rejected detail.
var (
	// ErrArtifactTruncated marks a v2 file shorter than its header
	// promises — a torn or partial write.
	ErrArtifactTruncated = model.ErrMappedTruncated
	// ErrArtifactMisaligned marks v2 bytes whose base address is not
	// 8-byte aligned, so the zero-copy section casts are unsound.
	ErrArtifactMisaligned = model.ErrMappedMisaligned
	// ErrArtifactChecksum marks a v2 CRC mismatch.
	ErrArtifactChecksum = model.ErrMappedChecksum
	// ErrArtifactCorrupt marks a structurally invalid v2 file.
	ErrArtifactCorrupt = model.ErrMappedCorrupt
)

// Mapped is an Artifact backed by the v2 zero-copy compiled layout:
// either a live memory mapping (OpenMapped) or a heap buffer in the
// same layout (Load on a v2 file). Its Queryable is ready immediately —
// no decode, no compile — and all Artifact methods work as usual.
//
// A Mapped obtained from OpenMapped holds the mapping until Close;
// queries against it (including snapshots derived from its Queryable)
// must not outlive the Close call.
type Mapped struct {
	algo   string
	cost   int64
	cs     *model.CompiledSummary
	size   int64
	mapped bool         // true = mmap-backed, false = heap-backed
	unmap  func() error // nil for heap-backed

	closeOnce sync.Once
	closeErr  error
}

// newMappedFromBytes validates data (already aligned) and wraps it.
// The header's cost must be the compiled hierarchy's own,
// |superedges| + |h-edges|: Cost reports it as the artifact's size.
func newMappedFromBytes(data []byte, mapped bool, unmap func() error) (*Mapped, error) {
	cs, info, err := model.FromMapped(data)
	if err == nil {
		if want := cs.Cost(); info.Cost != want {
			err = fmt.Errorf("%w: header cost %d, hierarchy has %d superedges and h-edges", ErrArtifactCorrupt, info.Cost, want)
		}
	}
	if err != nil {
		if unmap != nil {
			unmap()
		}
		return nil, err
	}
	return &Mapped{
		algo:   info.Algorithm,
		cost:   info.Cost,
		cs:     cs,
		size:   int64(len(data)),
		mapped: mapped,
		unmap:  unmap,
	}, nil
}

// OpenMapped memory-maps a v2 compiled artifact (written by
// SaveCompiled) and returns it ready to serve: the compiled arrays are
// zero-copy views over the mapping, validated structurally before first
// use. Boot cost is the validation sweep — no allocation proportional
// to the artifact, no decode, no recompile. The full-payload checksum
// is not verified on this path (it would read the whole mapping); use
// Load for a fully checksummed read, or VerifyMapped explicitly.
//
// Close the returned artifact to release the mapping.
func OpenMapped(path string) (*Mapped, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //slugvet:ok syncerr (read-only descriptor; the mapping outlives the fd by design)
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, unmap, err := mapFile(f, st.Size())
	if err != nil {
		return nil, fmt.Errorf("slug: mapping %s: %w", path, err)
	}
	m, err := newMappedFromBytes(data, mmapBacked, unmap)
	if err != nil {
		return nil, fmt.Errorf("slug: opening mapped artifact %s: %w", path, err)
	}
	return m, nil
}

// VerifyMapped runs the full-payload checksum over a v2 artifact file —
// the integrity pass OpenMapped deliberately skips. It reads the whole
// file.
func VerifyMapped(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return model.VerifyChecksum(raw)
}

// Algorithm returns the producing algorithm's canonical name, preserved
// in the v2 header.
func (m *Mapped) Algorithm() string { return m.algo }

// Cost returns the encoding cost of the source artifact, preserved in
// the v2 header.
func (m *Mapped) Cost() int64 { return m.cost }

// Decode reconstructs the represented graph from the compiled form.
func (m *Mapped) Decode() *graph.Graph { return m.cs.Decode() }

// Queryable returns the compiled query engine. For a Mapped artifact
// this is free: the engine's arrays are the file's bytes.
func (m *Mapped) Queryable() (*model.CompiledSummary, error) { return m.cs, nil }

// WriteTo exports the artifact back to the portable v1 SLGA envelope,
// reconstructing the hierarchical model from the compiled arrays. The
// reconstruction is exact: for every registered algorithm the emitted
// bytes are identical to the original artifact's WriteTo. Use
// SaveCompiled to persist the v2 form itself.
func (m *Mapped) WriteTo(w io.Writer) (int64, error) {
	return writeEnvelope(w, m.algo, m.cs.ToSummary())
}

// MappedBytes returns the size of the backing mapping or buffer.
func (m *Mapped) MappedBytes() int64 { return m.size }

// Format describes the backing: "v2-mapped" for a live memory mapping,
// "v2-heap" for the same layout loaded into memory.
func (m *Mapped) Format() string {
	if m.mapped {
		return "v2-mapped"
	}
	return "v2-heap"
}

// Close releases the memory mapping (no-op for heap-backed artifacts).
// The artifact — and any QueryCtx or overlay derived from it — must not
// be used afterwards. Idempotent.
func (m *Mapped) Close() error {
	m.closeOnce.Do(func() {
		if m.unmap != nil {
			m.closeErr = m.unmap()
		}
	})
	return m.closeErr
}

// WriteCompiledTo serializes an artifact's compiled form in the v2
// zero-copy layout. The artifact is compiled first if it has not been
// already (the one-time cost OpenMapped readers never pay again). An
// Updatable is written as WriteTo writes it: its overlay compacted in.
func WriteCompiledTo(w io.Writer, a Artifact) (int64, error) {
	var cs *model.CompiledSummary
	var err error
	if la, ok := a.(*liveArtifact); ok {
		cs, err = la.settled()
	} else {
		cs, err = a.Queryable()
	}
	if err != nil {
		return 0, err
	}
	return writeCompiled(w, a.Algorithm(), cs)
}

// writeCompiled writes cs in the v2 layout under algo, at the cost the
// compiled hierarchy fixes (what newMappedFromBytes checks on reading).
func writeCompiled(w io.Writer, algo string, cs *model.CompiledSummary) (int64, error) {
	return model.WriteCompiled(w, cs, model.MappedInfo{Algorithm: algo, Cost: cs.Cost()})
}

// SaveCompiled writes an artifact to path in the v2 zero-copy compiled
// layout ("SLGC"), the format OpenMapped boots from. The write is
// crash-safe, like Save.
func SaveCompiled(path string, a Artifact) error {
	return save(wal.OSFS{}, path, func(w io.Writer) (int64, error) { return WriteCompiledTo(w, a) })
}

// readMappedFrom drains a reader positioned at a v2 stream into an
// aligned buffer, verifies the full checksum (the bytes are in memory
// anyway), and wraps them as a heap-backed Mapped.
func readMappedFrom(r io.Reader) (*Mapped, error) {
	raw, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("slug: reading compiled artifact: %w", err)
	}
	if err := model.VerifyChecksum(raw); err != nil {
		return nil, err
	}
	buf := model.AlignedBuffer(len(raw))
	copy(buf, raw)
	return newMappedFromBytes(buf, false, nil)
}
