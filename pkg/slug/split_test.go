package slug

import (
	"context"
	"os"
	"path/filepath"
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

func TestSplitRoundTrip(t *testing.T) {
	for _, format := range []string{"v1", "v2"} {
		t.Run(format, func(t *testing.T) {
			sh, g := splitFixture(t)
			dir := t.TempDir()
			m, err := sh.Split(dir, format)
			if err != nil {
				t.Fatal(err)
			}
			if m.NumShards() != 3 || m.Nodes != g.NumNodes() || m.Epoch != sh.Epoch() {
				t.Fatalf("manifest = %+v, want 3 shards over %d nodes, epoch %s", m, g.NumNodes(), sh.Epoch())
			}

			loaded, err := LoadManifest(filepath.Join(dir, ManifestFilename))
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Epoch != sh.Epoch() {
				t.Fatalf("loaded epoch %s != artifact epoch %s", loaded.Epoch, sh.Epoch())
			}

			// Every shard opens, verifies, and decodes to the same subgraph
			// the in-memory artifact holds.
			for s := 0; s < loaded.NumShards(); s++ {
				art, err := loaded.OpenShard(dir, s)
				if err != nil {
					t.Fatalf("shard %d: %v", s, err)
				}
				if art.Cost() != sh.Shards[s].Cost() {
					t.Fatalf("shard %d cost %d != %d", s, art.Cost(), sh.Shards[s].Cost())
				}
				if !graph.Equal(art.Decode(), sh.Shards[s].Decode()) {
					t.Fatalf("shard %d decodes differently after round-trip", s)
				}
			}

			// Reassembled from the split pieces, the sharded artifact decodes
			// the whole input, and so does its compiled union (over
			// heap-decoded v2 shards, for format v2).
			shards := make([]Artifact, loaded.NumShards())
			gids := make([][]int32, loaded.NumShards())
			for s := range shards {
				art, err := loaded.OpenShard(dir, s)
				if err != nil {
					t.Fatal(err)
				}
				shards[s] = art
				gids[s] = sh.GlobalID[s]
			}
			re := &Sharded{algo: loaded.Algorithm, n: loaded.Nodes, Shards: shards, GlobalID: gids, Boundary: loaded.Boundary}
			if !graph.Equal(re.Decode(), g) {
				t.Fatal("reassembled artifact does not decode to the input")
			}
			cs, err := re.Queryable()
			if err != nil {
				t.Fatal(err)
			}
			if !graph.Equal(cs.Decode(), g) {
				t.Fatal("reassembled artifact's compiled union does not decode to the input")
			}
			if re.Epoch() != sh.Epoch() {
				t.Fatalf("reassembled epoch %s != original %s", re.Epoch(), sh.Epoch())
			}
		})
	}
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
