package slug

// Splitting a sharded summary into independently servable pieces: the
// artifact side of network federation (internal/fed). Split exports
// each shard of a *Sharded as a standalone artifact file — v1 envelope
// or v2 zero-copy layout — and its local→global id map as a sidecar
// file, plus a JSON manifest recording the shard files' digests, the
// id-map digests, the boundary sidecar, and an epoch digest binding
// them all together. A shard server mounts one shard file and
// cross-checks it against the manifest; a coordinator loads the whole
// directory back with OpenSplit and checks that every reply of shard s
// carries the version of its epoch and s (serve.ShardVersion) — so
// pieces of *different* sharded builds, or another shard, refuse to
// federate instead of silently merging mismatched graphs.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"

	"repro/internal/model"
	"repro/internal/wal"
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
	// local→global id map: the bytes of IDMapFile.
	IDMapDigest string `json:"id_map_digest"`
	// IDMapFile is the id-map sidecar's filename, relative to the
	// manifest.
	IDMapFile string `json:"id_map_file"`
}

// Manifest is the federation control file written by Split: everything
// a shard server needs to verify its mount and everything a
// coordinator needs to verify the federation, the id maps by name and
// digest.
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
// delta-uvarint encoding: the id-map sidecar's bytes, and what
// idMapDigest hashes (so the digest is independent of the artifact
// format the shard was exported in).
func appendIDMap(dst []byte, ids []int32) []byte {
	prev := int64(-1)
	for _, v := range ids {
		dst = binary.AppendUvarint(dst, uint64(int64(v)-prev-1))
		prev = int64(v)
	}
	return dst
}

func idMapDigest(ids []int32) string { return digest(appendIDMap(nil, ids)) }

// digest is the hex SHA-256 the manifest records for a file's bytes.
func digest(raw []byte) string {
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:])
}

// decodeIDMap parses an id-map sidecar written by Split: exactly count
// strictly ascending ids below n, and nothing after them.
func decodeIDMap(raw []byte, count, n int) ([]int32, error) {
	if count > len(raw) { // every id takes at least one byte
		return nil, fmt.Errorf("%d bytes cannot hold %d ids", len(raw), count)
	}
	ids := make([]int32, count)
	prev := int64(-1)
	for l := range ids {
		gap, w := binary.Uvarint(raw)
		if w <= 0 {
			return nil, fmt.Errorf("malformed gap at local %d", l)
		}
		raw = raw[w:]
		// Clamped, so a hostile gap cannot wrap v to a negative id.
		v := prev + 1 + int64(min(gap, uint64(n)))
		if v >= int64(n) || v > math.MaxInt32 {
			return nil, fmt.Errorf("local %d maps beyond the vertex count", l)
		}
		ids[l] = int32(v)
		prev = v
	}
	if len(raw) != 0 {
		return nil, fmt.Errorf("%d trailing bytes after %d ids", len(raw), count)
	}
	return ids, nil
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
// a federation coordinator keys its cache on and reports as
// X-Summary-Version. Never zero (zero means "unversioned").
func EpochVersion(epoch string) uint64 {
	sum := sha256.Sum256([]byte(epoch))
	v := binary.LittleEndian.Uint64(sum[:8])
	if v == 0 {
		v = 1
	}
	return v
}

// Split exports each shard of the artifact as a standalone file in
// dir — shard-000-<digest>.slga, ... for format "v1" (portable
// envelope) or shard-000-<digest>.slgc, ... for format "v2" (zero-copy
// compiled layout, mmap-bootable by a shard server) — with each shard's
// id map beside it (shard-000-<digest>.ids, ...), plus ManifestFilename
// tying them together, and returns the manifest. Files are named by the
// first 16 hex digits of their SHA-256, so a new build never writes
// over a file the old manifest names. Every file is committed through
// wal.WriteFile; the directory is fsynced after the shard and id-map
// files, the manifest — the commit point — is saved next, and only then
// are the split files it does not name removed. A split killed at any
// point leaves a directory that opens as the old build or the new one.
// The per-shard files round-trip through the ordinary Load path;
// OpenSplit reads the whole directory back, as a coordinator boots
// from it.
func (a *Sharded) Split(dir, format string) (*Manifest, error) {
	return a.split(wal.OSFS{}, dir, format)
}

// split is Split on fs.
func (a *Sharded) split(fs wal.FS, dir, format string) (*Manifest, error) {
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
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manifest{
		FormatVersion: manifestFormatVersion,
		Algorithm:     a.algo,
		Nodes:         a.n,
		Shards:        make([]ManifestShard, len(a.Shards)),
		Boundary:      a.Boundary,
	}
	keep := map[string]bool{ManifestFilename: true}
	for s, art := range a.Shards {
		payload, err := encodeArtifact(art, format)
		if err != nil {
			return nil, fmt.Errorf("slug: exporting shard %d: %w", s, err)
		}
		idMap := appendIDMap(nil, a.GlobalID[s])
		sum, idSum := digest(payload), digest(idMap)
		name := fmt.Sprintf("shard-%03d-%s%s", s, sum[:16], ext)
		idName := fmt.Sprintf("shard-%03d-%s.ids", s, idSum[:16])
		keep[name], keep[idName] = true, true
		for _, f := range []struct {
			name string
			raw  []byte
		}{{name, payload}, {idName, idMap}} {
			if err := commit(fs, filepath.Join(dir, f.name), func(w io.Writer) error {
				_, err := w.Write(f.raw)
				return err
			}); err != nil {
				return nil, fmt.Errorf("slug: writing %s: %w", f.name, err)
			}
		}
		m.Shards[s] = ManifestShard{
			File:        name,
			Nodes:       len(a.GlobalID[s]),
			Cost:        art.Cost(),
			Digest:      sum,
			IDMapDigest: idSum,
			IDMapFile:   idName,
		}
	}
	if err := wal.SyncDir(fs, dir); err != nil {
		return nil, fmt.Errorf("slug: syncing %s: %w", dir, err)
	}
	m.Epoch = a.Epoch()
	if err := save(fs, filepath.Join(dir, ManifestFilename), func(w io.Writer) (int64, error) {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return 0, enc.Encode(m)
	}); err != nil {
		return nil, fmt.Errorf("slug: writing manifest: %w", err)
	}
	// The new build is committed: retire the files of the builds it
	// replaces, and leftovers of killed splits.
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !keep[e.Name()] && splitFile.MatchString(e.Name()) {
			fs.Remove(filepath.Join(dir, e.Name()))
		}
	}
	if err := wal.SyncDir(fs, dir); err != nil {
		return nil, fmt.Errorf("slug: syncing %s: %w", dir, err)
	}
	return m, nil
}

// splitFile matches the names split writes: shard files, id maps and
// the manifest (content-named, or fixed as older splits wrote them),
// and their temporary names while a commit is in flight.
var splitFile = regexp.MustCompile(`^(shard-\d{3,}(-[0-9a-f]{16})?\.(slga|slgc|ids)|manifest\.json)(\.tmp-[0-9a-f]{16})?$`)

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
// boundary strictly sorted with in-range endpoints), and the recorded
// epoch matching a recomputation from the manifest's own digests — a
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
		if sh.Nodes < 0 || sh.File == "" || filepath.Base(sh.File) != sh.File ||
			(sh.IDMapFile != "" && filepath.Base(sh.IDMapFile) != sh.IDMapFile) {
			return nil, fmt.Errorf("slug: manifest shard %d malformed (file %q, id map file %q, nodes %d)", s, sh.File, sh.IDMapFile, sh.Nodes)
		}
		total += sh.Nodes
	}
	if total != m.Nodes {
		return nil, fmt.Errorf("slug: manifest shard sizes sum to %d, vertex count says %d", total, m.Nodes)
	}
	for i, e := range m.Boundary {
		if e[0] < 0 || e[0] >= e[1] || int(e[1]) >= m.Nodes {
			return nil, fmt.Errorf("slug: manifest boundary edge %d (%d,%d) malformed", i, e[0], e[1])
		}
		// Strictly increasing: a repeated edge would count twice in Cost().
		if i > 0 && slices.Compare(m.Boundary[i-1][:], e[:]) >= 0 {
			return nil, fmt.Errorf("slug: manifest boundary sidecar not strictly sorted at edge %d", i)
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
	if got := digest(raw); got != entry.Digest {
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

// artifactNodes returns the vertex count an artifact was built over, or
// -1 when the concrete type doesn't expose it cheaply.
func artifactNodes(a Artifact) int {
	switch t := a.(type) {
	case *Hierarchical:
		return t.Summary.N
	case *Mapped:
		return t.cs.NumNodes()
	}
	return -1
}

// OpenSplit loads the split directory whose manifest is at
// manifestPath back into the *Sharded it was split from: every shard
// file through OpenShard's checks, every id map from its sidecar
// (digest-checked against the manifest), the partition through
// model.CheckSharding, and the whole against the manifest's epoch.
// This is a federation coordinator's boot artifact.
func OpenSplit(manifestPath string) (*Sharded, error) {
	m, err := LoadManifest(manifestPath)
	if err != nil {
		return nil, err
	}
	dir := filepath.Dir(manifestPath)
	k := m.NumShards()
	a := &Sharded{algo: m.Algorithm, n: m.Nodes, Shards: make([]Artifact, k), GlobalID: make([][]int32, k), Boundary: m.Boundary}
	for s, entry := range m.Shards {
		if entry.IDMapFile == "" {
			return nil, fmt.Errorf("slug: manifest shard %d names no id_map_file: split the build again to write its id maps", s)
		}
		if a.Shards[s], err = m.OpenShard(dir, s); err != nil {
			return nil, err
		}
		raw, err := os.ReadFile(filepath.Join(dir, entry.IDMapFile))
		if err != nil {
			return nil, err
		}
		if got := digest(raw); got != entry.IDMapDigest {
			return nil, fmt.Errorf("slug: shard %d id map %s digest %.12s... does not match manifest %.12s...", s, entry.IDMapFile, got, entry.IDMapDigest)
		}
		if a.GlobalID[s], err = decodeIDMap(raw, entry.Nodes, m.Nodes); err != nil {
			return nil, fmt.Errorf("slug: shard %d id map %s: %w", s, entry.IDMapFile, err)
		}
	}
	if _, _, err := model.CheckSharding(a.GlobalID, a.Boundary); err != nil {
		return nil, fmt.Errorf("slug: %w", err)
	}
	if got := a.Epoch(); got != m.Epoch {
		return nil, fmt.Errorf("slug: split directory epoch %.12s... does not match its manifest %.12s...", got, m.Epoch)
	}
	return a, nil
}
