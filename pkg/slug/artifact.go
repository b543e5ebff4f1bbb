package slug

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/graph"
	"repro/internal/model"
	"repro/internal/wal"
)

// Artifact serialization envelope. Every artifact, regardless of the
// producing algorithm, is written as
//
//	magic "SLGA" | version u8 | kind u8 | algoLen varint | algo bytes
//	payload (the wrapped model's own serialized form)
//
// so a reader can tell what built a file before decoding the payload.
// Every algorithm's output is a hierarchical model (the baselines' flat
// summaries are height-1 hierarchies), so the kind byte has one legal
// value; it stays in the header so existing files keep their bytes. The
// payload encoding (internal/model's varint stream) is not an artifact
// on its own: ReadFrom rejects one that arrives without the envelope.

const (
	envelopeMagic   = "SLGA"
	envelopeVersion = 1

	kindHierarchical = byte(1)

	// maxAlgoNameLen bounds the algorithm-name field when reading, so a
	// corrupt length prefix cannot provoke a giant allocation.
	maxAlgoNameLen = 256
)

// Hierarchical is an Artifact wrapping the hierarchical model
// G = (S, P+, P-, H). It is what every registered algorithm returns:
// SLUGGER's trees as built, a baseline's flat summary as height-1 trees.
type Hierarchical struct {
	algo    string
	Summary *model.Summary

	compileOnce sync.Once
	compiled    *model.CompiledSummary
}

// NewHierarchical wraps a hierarchical summary as an artifact tagged
// with the producing algorithm's canonical name.
func NewHierarchical(algo string, s *model.Summary) *Hierarchical {
	return &Hierarchical{algo: algo, Summary: s}
}

// Algorithm returns the producing algorithm's canonical name.
func (a *Hierarchical) Algorithm() string { return a.algo }

// Cost returns the hierarchical encoding cost |P+| + |P-| + |H|.
func (a *Hierarchical) Cost() int64 { return a.Summary.Cost() }

// Decode reconstructs the input graph exactly, from the compiled
// engine Queryable caches.
func (a *Hierarchical) Decode() *graph.Graph {
	cs, _ := a.Queryable()
	return cs.Decode()
}

// Queryable compiles the summary into the CSR query engine, once; the
// compiled form is cached and shared by later calls.
func (a *Hierarchical) Queryable() (*model.CompiledSummary, error) {
	a.compileOnce.Do(func() { a.compiled = a.Summary.Compile() })
	return a.compiled, nil
}

// WriteTo serializes the artifact through the versioned envelope.
func (a *Hierarchical) WriteTo(w io.Writer) (int64, error) {
	return writeEnvelope(w, a.algo, a.Summary)
}

// writeEnvelope emits the self-describing header, then the model's
// payload stream.
func writeEnvelope(w io.Writer, algo string, s *model.Summary) (int64, error) {
	if len(algo) > maxAlgoNameLen {
		return 0, fmt.Errorf("slug: algorithm name %q too long", algo)
	}
	head := append([]byte(envelopeMagic), envelopeVersion, kindHierarchical)
	head = binary.AppendUvarint(head, uint64(len(algo)))
	n, err := w.Write(append(head, algo...))
	count := int64(n)
	if err != nil {
		return count, err
	}
	pn, err := s.WriteTo(w)
	return count + pn, err
}

// ReadFrom deserializes an artifact written by any Artifact's WriteTo
// ("SLGA": the envelope header restores the producing algorithm) or by
// WriteCompiledTo ("SLGC": loads heap-backed with the full checksum
// verified, ready to serve with no recompilation). Anything else — a
// bare payload encoding included — is rejected by its magic. Corrupt
// input yields an error, never a silently wrong artifact.
func ReadFrom(r io.Reader) (Artifact, error) {
	br := bufio.NewReader(r)
	peek, err := br.Peek(len(envelopeMagic))
	if err != nil {
		return nil, fmt.Errorf("slug: reading artifact magic: %w", err)
	}
	switch string(peek) {
	case envelopeMagic: // parsed below
	case compiledMagic:
		return readMappedFrom(br)
	default:
		return nil, fmt.Errorf("slug: %q is not an artifact magic (an artifact starts with %q or %q)",
			peek, envelopeMagic, compiledMagic)
	}
	var head [len(envelopeMagic) + 2]byte // magic | version | kind
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, fmt.Errorf("slug: reading artifact header: %w", err)
	}
	if ver := head[len(envelopeMagic)]; ver != envelopeVersion {
		return nil, fmt.Errorf("slug: unsupported artifact version %d", ver)
	}
	if kind := head[len(envelopeMagic)+1]; kind != kindHierarchical {
		return nil, fmt.Errorf("slug: unknown artifact kind %d", kind)
	}
	algoLen, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("slug: reading algorithm name length: %w", err)
	}
	if algoLen > maxAlgoNameLen {
		return nil, fmt.Errorf("slug: implausible algorithm name length %d", algoLen)
	}
	algo := make([]byte, algoLen)
	if _, err := io.ReadFull(br, algo); err != nil {
		return nil, fmt.Errorf("slug: reading algorithm name: %w", err)
	}
	s, err := model.ReadFrom(br)
	if err != nil {
		return nil, err
	}
	return NewHierarchical(string(algo), s), nil
}

// Save writes an artifact (anything serializing through WriteTo; a
// *Sharded saves its union) to a file, crash-safely: see save.
func Save(path string, a io.WriterTo) error {
	return save(wal.OSFS{}, path, a.WriteTo)
}

// save commits write's output to path through wal.WriteFile and syncs
// the directory, so a crash mid-save leaves path holding the old file,
// if any, or all of the new one — never a torn artifact.
func save(fs wal.FS, path string, write func(io.Writer) (int64, error)) error {
	err := commit(fs, path, func(w io.Writer) error {
		_, err := write(w)
		return err
	})
	if err != nil {
		return err
	}
	return wal.SyncDir(fs, filepath.Dir(path))
}

// commit is wal.WriteFile under a temporary name beside path that is
// new on every call, so concurrent writers of one path never share it.
// The rename is durable once the directory is synced.
func commit(fs wal.FS, path string, write func(io.Writer) error) error {
	return wal.WriteFile(fs, fmt.Sprintf("%s.tmp-%016x", path, rand.Uint64()), path, write)
}

// Load reads an artifact from a file written by Save or SaveCompiled
// (the magic dispatches; see ReadFrom).
func Load(path string) (Artifact, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //slugvet:ok syncerr (read-only descriptor; close failure cannot corrupt data already read)
	return ReadFrom(f)
}

// Validate checks that the snapshot an artifact serves — its compiled
// form, or an Updatable's current overlay over it — represents exactly
// g, with every pair count in {0,1} (model.DeltaOverlay.Validate). It
// reports the first discrepancy found, a concrete pair, which is more
// useful than a boolean when debugging a losslessness regression.
func Validate(a Artifact, g *graph.Graph) error {
	if u, ok := a.(Updatable); ok {
		return u.View().Validate(g)
	}
	cs, err := a.Queryable()
	if err != nil {
		return err
	}
	return model.NewOverlay(cs).Validate(g)
}
