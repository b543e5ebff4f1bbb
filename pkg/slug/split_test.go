package slug

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/graph"
)

func splitFixture(t *testing.T) (*Sharded, *graph.Graph) {
	t.Helper()
	g := graph.ErdosRenyi(150, 600, 21)
	sh, err := SummarizeSharded(context.Background(), g, 3, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	return sh, g
}

func TestSplitRefusesTamper(t *testing.T) {
	sh, _ := splitFixture(t)
	dir := t.TempDir()
	m, err := sh.Split(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}

	// Corrupting one shard file byte fails its digest check.
	path := filepath.Join(dir, m.Shards[1].File)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OpenShard(dir, 1); err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("tampered shard opened: %v", err)
	}
	// Untouched shards still open.
	if _, err := m.OpenShard(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := m.OpenShard(dir, 5); err == nil {
		t.Fatal("out-of-range shard opened")
	}

	// A hand-edited manifest (different epoch than its contents imply) is
	// rejected at load.
	mpath := filepath.Join(dir, ManifestFilename)
	doc, err := os.ReadFile(mpath)
	if err != nil {
		t.Fatal(err)
	}
	forged := strings.Replace(string(doc), m.Epoch[:8], "00000000", 1)
	if forged == string(doc) {
		t.Fatal("could not forge epoch in manifest")
	}
	if err := os.WriteFile(mpath, []byte(forged), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadManifest(mpath); err == nil || !strings.Contains(err.Error(), "epoch") {
		t.Fatalf("forged manifest loaded: %v", err)
	}

	// A repeated boundary edge, with the epoch recomputed to match, is
	// still rejected: it would count twice in Cost().
	mpath = rewriteManifest(t, t.TempDir(), sh, func(m *Manifest) {
		m.Boundary = append([][2]int32{m.Boundary[0]}, m.Boundary...)
	})
	if _, err := LoadManifest(mpath); err == nil || !strings.Contains(err.Error(), "sorted") {
		t.Fatalf("manifest with a repeated boundary edge loaded: %v", err)
	}
}

// rewriteManifest splits sh into dir, applies edit to the manifest and
// recomputes its epoch from the edited contents — a forgery the epoch
// check alone cannot see — and returns the manifest's path.
func rewriteManifest(t *testing.T, dir string, sh *Sharded, edit func(*Manifest)) string {
	t.Helper()
	m, err := sh.Split(dir, "v1")
	if err != nil {
		t.Fatal(err)
	}
	edit(m)
	idDigests := make([]string, m.NumShards())
	costs := make([]int64, m.NumShards())
	for s, e := range m.Shards {
		idDigests[s], costs[s] = e.IDMapDigest, e.Cost
	}
	m.Epoch = computeEpoch(m.Algorithm, m.Nodes, idDigests, boundaryDigest(m.Boundary), costs)
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ManifestFilename)
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSplitOpenSplitRoundTrip: OpenSplit restores exactly the build
// Split wrote — id maps, boundary, epoch and every shard's bytes — in
// either format, and the split's meaning is pinned: the fixture's
// epoch is a fixed digest.
func TestSplitOpenSplitRoundTrip(t *testing.T) {
	const pinned = "ec3f947adba012514f397da98c8c102487d95d92f6e767286b84f7d35ef20fd8"
	sh, _ := splitFixture(t)
	if got := sh.Epoch(); got != pinned {
		t.Fatalf("fixture epoch %s, pinned %s", got, pinned)
	}
	for _, format := range []string{"v1", "v2"} {
		dir := t.TempDir()
		if _, err := sh.Split(dir, format); err != nil {
			t.Fatal(err)
		}
		back, err := OpenSplit(filepath.Join(dir, ManifestFilename))
		if err != nil {
			t.Fatalf("%s: %v", format, err)
		}
		if back.Algorithm() != sh.Algorithm() || back.NumNodes() != sh.NumNodes() || back.Epoch() != pinned {
			t.Fatalf("%s: restored %q over %d vertices, epoch %s", format, back.Algorithm(), back.NumNodes(), back.Epoch())
		}
		if !slices.EqualFunc(back.GlobalID, sh.GlobalID, slices.Equal) || !slices.Equal(back.Boundary, sh.Boundary) {
			t.Fatalf("%s: id maps or boundary differ after the round trip", format)
		}
		for s := range sh.Shards {
			want, err := encodeArtifact(sh.Shards[s], format)
			if err != nil {
				t.Fatal(err)
			}
			got, err := encodeArtifact(back.Shards[s], format)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s: shard %d bytes differ after the round trip", format, s)
			}
		}
	}
}

// TestOpenSplitRejects: every piece OpenSplit reads is checked, so a
// split directory that does not hold one consistent build never loads.
func TestOpenSplitRejects(t *testing.T) {
	sh, _ := splitFixture(t)
	writeIDs := func(dir string, m *Manifest, s int, raw []byte) {
		if err := os.WriteFile(filepath.Join(dir, m.Shards[s].IDMapFile), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// forgeIDs replaces shard 0's sidecar with raw and records its
	// digest, so only the id-map decoder and the partition check stand
	// between raw and the coordinator.
	forgeIDs := func(raw []byte) func(string, *Manifest) {
		return func(dir string, m *Manifest) {
			writeIDs(dir, m, 0, raw)
			m.Shards[0].IDMapDigest = digest(raw)
		}
	}
	ids0, ids1 := sh.GlobalID[0], sh.GlobalID[1]
	// Shard 0 gives up its first vertex and claims shard 1's first.
	overlap := slices.Sorted(slices.Values(append(slices.Clone(ids0[1:]), ids1[0])))
	huge := binary.AppendUvarint(nil, 1<<63)
	for range len(ids0) - 1 {
		huge = append(huge, 0)
	}
	// The boundary plus one edge inside shard 0, in sorted position.
	withIntra := append(slices.Clone(sh.Boundary), [2]int32{ids0[0], ids0[1]})
	slices.SortFunc(withIntra, func(a, b [2]int32) int { return slices.Compare(a[:], b[:]) })
	for _, tc := range []struct {
		name, want string
		edit       func(dir string, m *Manifest)
	}{
		{"edited id map", "digest", func(dir string, m *Manifest) {
			raw := appendIDMap(nil, ids0)
			raw[len(raw)-1]++
			writeIDs(dir, m, 0, raw)
		}},
		{"missing id map", "no such file", func(dir string, m *Manifest) {
			if err := os.Remove(filepath.Join(dir, m.Shards[2].IDMapFile)); err != nil {
				t.Fatal(err)
			}
		}},
		{"no id_map_file", "id_map_file", func(_ string, m *Manifest) { m.Shards[1].IDMapFile = "" }},
		{"overlapping id maps", "two shards", forgeIDs(appendIDMap(nil, overlap))},
		{"trailing id-map byte", "trailing", forgeIDs(append(appendIDMap(nil, ids0), 0))},
		{"id-map gap of 2^63", "beyond", forgeIDs(huge)},
		{"intra-shard boundary edge", "inside shard", func(_ string, m *Manifest) { m.Boundary = withIntra }},
	} {
		dir := t.TempDir()
		path := rewriteManifest(t, dir, sh, func(m *Manifest) { tc.edit(dir, m) })
		if _, err := OpenSplit(path); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: OpenSplit = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}

	// The build itself refuses to save a boundary that is not a sorted,
	// repeat-free list of cross-shard edges.
	b := sh.Boundary
	for name, bnd := range map[string][][2]int32{
		"duplicate edge":   append([][2]int32{b[0]}, b...),
		"intra-shard edge": withIntra,
		"unsorted sidecar": append([][2]int32{b[1], b[0]}, b[2:]...),
	} {
		bad := &Sharded{algo: sh.algo, n: sh.n, Shards: sh.Shards, GlobalID: sh.GlobalID, Boundary: bnd}
		if _, err := bad.WriteTo(io.Discard); err == nil {
			t.Fatalf("%s: WriteTo accepted", name)
		}
	}
}

func TestSplitRejectsUnknownFormat(t *testing.T) {
	sh, _ := splitFixture(t)
	if _, err := sh.Split(t.TempDir(), "v3"); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestEpochSemantics(t *testing.T) {
	sh, g := splitFixture(t)

	// Epoch is a pure function of content: rebuilding the same graph the
	// same way reproduces it; changing the build does not.
	sh2, err := SummarizeSharded(context.Background(), g, 3, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if sh.Epoch() != sh2.Epoch() {
		t.Fatal("identical builds disagree on epoch")
	}
	sh4, err := SummarizeSharded(context.Background(), g, 4, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	if sh.Epoch() == sh4.Epoch() {
		t.Fatal("different shard counts share an epoch")
	}

	// Format-independence: v1 and v2 exports of one build carry one epoch.
	d1, d2 := t.TempDir(), t.TempDir()
	m1, err := sh.Split(d1, "v1")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := sh.Split(d2, "v2")
	if err != nil {
		t.Fatal(err)
	}
	if m1.Epoch != m2.Epoch {
		t.Fatal("v1 and v2 exports of one build disagree on epoch")
	}

	// The shard servers' content version derives from the epoch, nonzero.
	if EpochVersion(sh.Epoch()) == 0 {
		t.Fatal("EpochVersion is 0, the unversioned marker")
	}
	if EpochVersion(sh.Epoch()) == EpochVersion(sh4.Epoch()) {
		t.Fatal("distinct epochs collide in EpochVersion")
	}
}
