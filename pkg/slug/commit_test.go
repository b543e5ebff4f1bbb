package slug

// White-box crash test of the artifact writers: Save, SaveCompiled and
// Split commit through wal.WriteFile, and their unexported entry points
// take the filesystem, so a fault filesystem can kill them at every
// mutating operation, through the same faultfs.KillEvery loop as the
// WAL's TestCrashKillPointMatrix.

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/graph"
	"repro/internal/wal"
	"repro/internal/wal/faultfs"
)

// TestWritersKillPointMatrix kills Save (v1), SaveCompiled (v2) and
// Split (v2, k = 3) at every filesystem operation while each writes a
// new build over an old one. After every kill the old build or the new
// one loads — for Split, OpenSplit returns the old epoch or the new one,
// never an error or a mixed build — an acknowledged write left the new
// one, and a clean retry writes the new one (a clean re-split leaves no
// file its manifest does not name).
func TestWritersKillPointMatrix(t *testing.T) {
	ctx := context.Background()
	graphs := []*graph.Graph{graph.ErdosRenyi(60, 180, 1), graph.ErdosRenyi(60, 180, 2)}
	var arts []Artifact
	var shs []*Sharded
	for _, g := range graphs {
		a, err := Get("slugger").Summarize(ctx, g, WithIterations(4), WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		sh, err := SummarizeSharded(ctx, g, 3, WithIterations(4), WithSeed(3))
		if err != nil {
			t.Fatal(err)
		}
		arts, shs = append(arts, a), append(shs, sh)
	}

	files := []struct {
		name string
		save func(path string, a Artifact) error
		onFS func(fs wal.FS, path string, a Artifact) error
		ext  string
	}{
		{"Save", func(path string, a Artifact) error { return Save(path, a) },
			func(fs wal.FS, path string, a Artifact) error { return save(fs, path, a.WriteTo) }, ".slga"},
		{"SaveCompiled", SaveCompiled,
			func(fs wal.FS, path string, a Artifact) error {
				return save(fs, path, func(w io.Writer) (int64, error) { return WriteCompiledTo(w, a) })
			}, ".slgc"},
	}
	for _, f := range files {
		t.Run(f.name, func(t *testing.T) {
			var want [2][]byte // the old build's bytes and the new one's, as the exported writer leaves them
			for i, a := range arts {
				path := filepath.Join(t.TempDir(), "a"+f.ext)
				if err := f.save(path, a); err != nil {
					t.Fatal(err)
				}
				raw, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = raw
			}
			path := func(dir string) string { return filepath.Join(dir, "a"+f.ext) }
			faultfs.KillEvery(t, 4, func(fs wal.FS, dir string) error {
				if err := f.onFS(faultfs.NoSync{}, path(dir), arts[0]); err != nil {
					t.Fatal(err)
				}
				return f.onFS(fs, path(dir), arts[1])
			}, func(name, dir string, werr error) {
				if _, err := Load(path(dir)); err != nil {
					t.Fatalf("%s: artifact does not load after the kill: %v", name, err)
				}
				raw, err := os.ReadFile(path(dir))
				if err != nil {
					t.Fatal(err)
				}
				switch {
				case bytes.Equal(raw, want[1]):
				case werr == nil:
					t.Fatalf("%s: acknowledged write left bytes other than the new build's", name)
				case !bytes.Equal(raw, want[0]):
					t.Fatalf("%s: %d bytes on disk are neither the old build nor the new one", name, len(raw))
				}
				if err := f.onFS(faultfs.NoSync{}, path(dir), arts[1]); err != nil {
					t.Fatalf("%s: clean retry: %v", name, err)
				}
				if raw, err := os.ReadFile(path(dir)); err != nil || !bytes.Equal(raw, want[1]) {
					t.Fatalf("%s: clean retry did not write the new build (%v)", name, err)
				}
			})
		})
	}

	t.Run("Split", func(t *testing.T) {
		epochs := []string{shs[0].Epoch(), shs[1].Epoch()}
		if epochs[0] == epochs[1] {
			t.Fatal("the old and the new build share an epoch")
		}
		manifest := func(dir string) string { return filepath.Join(dir, ManifestFilename) }
		faultfs.KillEvery(t, 4, func(fs wal.FS, dir string) error {
			if _, err := shs[0].split(faultfs.NoSync{}, dir, "v2"); err != nil {
				t.Fatal(err)
			}
			_, err := shs[1].split(fs, dir, "v2")
			return err
		}, func(name, dir string, werr error) {
			back, err := OpenSplit(manifest(dir))
			if err != nil {
				t.Fatalf("%s: OpenSplit refuses the directory (write error %v): %v", name, werr, err)
			}
			build := -1
			for i, e := range epochs {
				if back.Epoch() == e {
					build = i
				}
			}
			if build < 0 {
				t.Fatalf("%s: OpenSplit returned epoch %.12s..., neither the old build's nor the new one's", name, back.Epoch())
			}
			if err := Validate(back, graphs[build]); err != nil {
				t.Fatalf("%s: the build OpenSplit returned does not represent its graph: %v", name, err)
			}
			if werr == nil && build != 1 {
				t.Fatalf("%s: acknowledged split opens at the old epoch", name)
			}
			if _, err := shs[1].split(faultfs.NoSync{}, dir, "v2"); err != nil {
				t.Fatalf("%s: clean re-split: %v", name, err)
			}
			m, err := LoadManifest(manifest(dir))
			if err != nil {
				t.Fatalf("%s: clean re-split: %v", name, err)
			}
			if back, err := OpenSplit(manifest(dir)); err != nil || back.Epoch() != epochs[1] {
				t.Fatalf("%s: clean re-split does not open at the new epoch (%v)", name, err)
			}
			named := map[string]bool{ManifestFilename: true}
			for _, sh := range m.Shards {
				named[sh.File], named[sh.IDMapFile] = true, true
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range entries {
				if !named[e.Name()] {
					t.Fatalf("%s: clean re-split left %s, which its manifest does not name", name, e.Name())
				}
			}
		})
	})
}
