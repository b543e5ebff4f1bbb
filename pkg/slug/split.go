package slug

// Splitting a sharded summary into independently servable pieces: the
// artifact side of network federation (internal/fed). Split exports
// each shard of a *Sharded as a standalone artifact file — v1 envelope
// or v2 zero-copy layout — plus a JSON manifest recording the shard
// files' digests, the per-shard id-map digests, the boundary sidecar,
// and an epoch digest binding them all together. A shard server mounts
// one shard file and cross-checks it against the manifest; a
// coordinator loads the full envelope and cross-checks its own epoch
// against the manifest and against every shard server's /shardinfo —
// so processes holding pieces of *different* sharded builds refuse to
// federate instead of silently merging mismatched graphs.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// ManifestFilename is the conventional manifest name Split writes
// inside its output directory.
const ManifestFilename = "manifest.json"

// manifestFormatVersion versions the manifest schema itself.
const manifestFormatVersion = 1

// ManifestShard describes one exported shard file.
type ManifestShard struct {
	// File is the shard artifact's filename, relative to the manifest.
	File string `json:"file"`
	// Nodes is the shard's local vertex count.
	Nodes int `json:"nodes"`
	// Cost is the shard artifact's encoding cost.
	Cost int64 `json:"cost"`
	// Digest is the hex SHA-256 of the shard artifact file's bytes.
	Digest string `json:"digest"`
	// IDMapDigest is the hex SHA-256 of the shard's delta-encoded
	// local→global id map (the same encoding the SLGS envelope uses).
	IDMapDigest string `json:"id_map_digest"`
}

// Manifest is the federation control file written by Split: everything
// a shard server needs to verify its mount and everything a
// coordinator needs to verify the federation, except the id maps
// themselves (those live in the SLGS envelope the coordinator loads).
type Manifest struct {
	FormatVersion int             `json:"format_version"`
	Algorithm     string          `json:"algorithm"`
	Nodes         int             `json:"nodes"`
	Epoch         string          `json:"epoch"`
	Shards        []ManifestShard `json:"shards"`
	// Boundary holds the cross-shard edges {u,v}, u < v, sorted
	// lexicographically, in global ids — the sidecar a coordinator
	// answers cross-shard HasEdge queries from locally.
	Boundary [][2]int32 `json:"boundary"`
}

// NumShards returns the number of exported shards.
func (m *Manifest) NumShards() int { return len(m.Shards) }

// appendIDMap appends a shard's sorted id map in its canonical
// delta-uvarint encoding: the SLGS envelope field, and what idMapDigest
// hashes (so the digest is independent of the artifact format the shard
// was exported in).
func appendIDMap(dst []byte, ids []int32) []byte {
	prev := int64(-1)
	for _, v := range ids {
		dst = binary.AppendUvarint(dst, uint64(int64(v)-prev-1))
		prev = int64(v)
	}
	return dst
}

func idMapDigest(ids []int32) string {
	sum := sha256.Sum256(appendIDMap(nil, ids))
	return hex.EncodeToString(sum[:])
}

// boundaryDigest hashes the boundary sidecar in its canonical
// lexicographic order.
func boundaryDigest(boundary [][2]int32) string {
	h := sha256.New()
	var scratch [8]byte
	for _, e := range boundary {
		binary.LittleEndian.PutUint32(scratch[:4], uint32(e[0]))
		binary.LittleEndian.PutUint32(scratch[4:], uint32(e[1]))
		h.Write(scratch[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// computeEpoch derives the federation epoch: a digest over everything
// that must agree for a coordinator and a set of shard servers to be
// serving pieces of the same sharded build — the algorithm, the vertex
// count, the partition (id-map digests), the boundary sidecar, and the
// per-shard content (costs). Deliberately independent of the artifact
// format (v1 vs v2 exports of one build share an epoch).
func computeEpoch(algo string, n int, idDigests []string, bndDigest string, costs []int64) string {
	h := sha256.New()
	fmt.Fprintf(h, "slug-epoch-v1\n%s\n%d %d\n", algo, n, len(idDigests))
	for i, d := range idDigests {
		fmt.Fprintf(h, "%s %d\n", d, costs[i])
	}
	io.WriteString(h, bndDigest)
	return hex.EncodeToString(h.Sum(nil))
}

// Epoch returns the sharded artifact's federation epoch (see
// computeEpoch). Two *Sharded values have equal epochs exactly when
// they summarize the same graph the same way under the same partition.
func (a *Sharded) Epoch() string {
	idDigests := make([]string, len(a.GlobalID))
	costs := make([]int64, len(a.Shards))
	for s, ids := range a.GlobalID {
		idDigests[s] = idMapDigest(ids)
		costs[s] = a.Shards[s].Cost()
	}
	return computeEpoch(a.algo, a.n, idDigests, boundaryDigest(a.Boundary), costs)
}

// EpochVersion folds an epoch digest into the uint64 content version
// used for cache keying and the X-Summary-Version header. Never zero
// (zero means "unversioned").
func EpochVersion(epoch string) uint64 {
	sum := sha256.Sum256([]byte(epoch))
	v := binary.LittleEndian.Uint64(sum[:8])
	if v == 0 {
		v = 1
	}
	return v
}

// Split exports each shard of the artifact as a standalone file in
// dir — shard-000.slga, shard-001.slga, ... for format "v1" (portable
// envelope) or shard-000.slgc, ... for format "v2" (zero-copy compiled
// layout, mmap-bootable by a shard server) — plus ManifestFilename
// tying them together, and returns the manifest. All writes are
// crash-safe (tmp + fsync + rename). The per-shard files round-trip
// through the ordinary Load path; the sharded envelope itself
// (Save(a)) remains the coordinator's boot artifact.
func (a *Sharded) Split(dir, format string) (*Manifest, error) {
	var ext string
	switch format {
	case "v1":
		ext = ".slga"
	case "v2":
		ext = ".slgc"
	default:
		return nil, fmt.Errorf("slug: unknown split format %q (want v1 or v2)", format)
	}
	if len(a.Shards) != len(a.GlobalID) {
		return nil, fmt.Errorf("slug: %d shards but %d id maps", len(a.Shards), len(a.GlobalID))
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manifest{
		FormatVersion: manifestFormatVersion,
		Algorithm:     a.algo,
		Nodes:         a.n,
		Shards:        make([]ManifestShard, len(a.Shards)),
		Boundary:      a.Boundary,
	}
	for s, art := range a.Shards {
		name := fmt.Sprintf("shard-%03d%s", s, ext)
		payload, err := encodeArtifact(art, format)
		if err != nil {
			return nil, fmt.Errorf("slug: exporting shard %d: %w", s, err)
		}
		if err := atomicWrite(filepath.Join(dir, name), func(w io.Writer) (int64, error) {
			n, err := w.Write(payload)
			return int64(n), err
		}); err != nil {
			return nil, fmt.Errorf("slug: writing shard %d: %w", s, err)
		}
		sum := sha256.Sum256(payload)
		m.Shards[s] = ManifestShard{
			File:        name,
			Nodes:       len(a.GlobalID[s]),
			Cost:        art.Cost(),
			Digest:      hex.EncodeToString(sum[:]),
			IDMapDigest: idMapDigest(a.GlobalID[s]),
		}
	}
	m.Epoch = a.Epoch()
	if err := atomicWrite(filepath.Join(dir, ManifestFilename), func(w io.Writer) (int64, error) {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return 0, enc.Encode(m)
	}); err != nil {
		return nil, fmt.Errorf("slug: writing manifest: %w", err)
	}
	return m, nil
}

// encodeArtifact serializes one shard artifact in the requested format.
func encodeArtifact(art Artifact, format string) ([]byte, error) {
	var buf bytes.Buffer
	var err error
	if format == "v2" {
		_, err = WriteCompiledTo(&buf, art)
	} else {
		_, err = art.WriteTo(&buf)
	}
	return buf.Bytes(), err
}

// LoadManifest reads and validates a manifest written by Split: schema
// version, structural sanity (shard sizes sum to the vertex count,
// boundary sorted with in-range endpoints), and the recorded epoch
// matching a recomputation from the manifest's own digests — a
// tampered or hand-edited manifest is rejected, not trusted.
func LoadManifest(path string) (*Manifest, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, fmt.Errorf("slug: parsing manifest %s: %w", path, err)
	}
	if m.FormatVersion != manifestFormatVersion {
		return nil, fmt.Errorf("slug: unsupported manifest format version %d", m.FormatVersion)
	}
	if len(m.Shards) == 0 {
		return nil, fmt.Errorf("slug: manifest lists no shards")
	}
	total := 0
	for s, sh := range m.Shards {
		if sh.Nodes < 0 || sh.File == "" || filepath.Base(sh.File) != sh.File {
			return nil, fmt.Errorf("slug: manifest shard %d malformed (file %q, nodes %d)", s, sh.File, sh.Nodes)
		}
		total += sh.Nodes
	}
	if total != m.Nodes {
		return nil, fmt.Errorf("slug: manifest shard sizes sum to %d, vertex count says %d", total, m.Nodes)
	}
	if !sort.SliceIsSorted(m.Boundary, func(i, j int) bool {
		if m.Boundary[i][0] != m.Boundary[j][0] {
			return m.Boundary[i][0] < m.Boundary[j][0]
		}
		return m.Boundary[i][1] < m.Boundary[j][1]
	}) {
		return nil, fmt.Errorf("slug: manifest boundary sidecar not sorted")
	}
	for i, e := range m.Boundary {
		if e[0] < 0 || e[0] >= e[1] || int(e[1]) >= m.Nodes {
			return nil, fmt.Errorf("slug: manifest boundary edge %d (%d,%d) malformed", i, e[0], e[1])
		}
	}
	idDigests := make([]string, len(m.Shards))
	costs := make([]int64, len(m.Shards))
	for s, sh := range m.Shards {
		idDigests[s] = sh.IDMapDigest
		costs[s] = sh.Cost
	}
	if want := computeEpoch(m.Algorithm, m.Nodes, idDigests, boundaryDigest(m.Boundary), costs); want != m.Epoch {
		return nil, fmt.Errorf("slug: manifest epoch %.12s... does not match its contents (recomputed %.12s...)", m.Epoch, want)
	}
	return &m, nil
}

// OpenShard loads shard s's artifact file (relative to dir, typically
// the manifest's directory) and cross-checks it against the manifest:
// byte digest, vertex count, and encoding cost must all match, so a
// shard server cannot accidentally mount a file from a different
// sharded build — or a different shard of the right build.
func (m *Manifest) OpenShard(dir string, s int) (Artifact, error) {
	if s < 0 || s >= len(m.Shards) {
		return nil, fmt.Errorf("slug: shard %d out of range [0,%d)", s, len(m.Shards))
	}
	entry := m.Shards[s]
	path := filepath.Join(dir, entry.File)
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sum := sha256.Sum256(raw)
	if got := hex.EncodeToString(sum[:]); got != entry.Digest {
		return nil, fmt.Errorf("slug: shard %d file %s digest %.12s... does not match manifest %.12s... — refusing to federate a mismatched shard", s, entry.File, got, entry.Digest)
	}
	art, err := ReadFrom(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("slug: decoding shard %d file %s: %w", s, entry.File, err)
	}
	if got := artifactNodes(art); got >= 0 && got != entry.Nodes {
		return nil, fmt.Errorf("slug: shard %d file has %d vertices, manifest says %d", s, got, entry.Nodes)
	}
	if got := art.Cost(); got != entry.Cost {
		return nil, fmt.Errorf("slug: shard %d file has cost %d, manifest says %d", s, got, entry.Cost)
	}
	return art, nil
}
