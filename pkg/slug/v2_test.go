package slug_test

// Black-box acceptance tests for the v2 zero-copy artifact format:
// byte-identical v1 export, crash-safe persistence, and rejection of
// damaged files with the right sentinel errors. Answers and cost across
// the v1, heap and mmap forms are the oracle's (oracle_test.go).

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/pkg/slug"
)

// buildArtifact summarizes the shared test graph with the named
// algorithm.
func buildArtifact(t testing.TB, algo string) slug.Artifact {
	t.Helper()
	art, err := slug.Get(algo).Summarize(context.Background(), testGraph(), slug.WithSeed(7))
	if err != nil {
		t.Fatalf("summarizing with %s: %v", algo, err)
	}
	return art
}

// saveV2 persists art in the v2 layout under a temp dir.
func saveV2(t testing.TB, art slug.Artifact) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "artifact.slgc")
	if err := slug.SaveCompiled(path, art); err != nil {
		t.Fatalf("SaveCompiled: %v", err)
	}
	return path
}

// TestV2WriteToExport pins the v2 -> v1 escape hatch for every
// registered algorithm: an artifact exported from its mapped form is
// byte-identical to the original envelope, so no information is lost by
// serving v2 and one artifact has one v1 encoding.
func TestV2WriteToExport(t *testing.T) {
	for _, algo := range slug.Algorithms() {
		t.Run(algo, func(t *testing.T) {
			art := buildArtifact(t, algo)
			var want bytes.Buffer
			if _, err := art.WriteTo(&want); err != nil {
				t.Fatal(err)
			}
			m, err := slug.OpenMapped(saveV2(t, art))
			if err != nil {
				t.Fatal(err)
			}
			defer m.Close()
			var got bytes.Buffer
			if _, err := m.WriteTo(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want.Bytes(), got.Bytes()) {
				t.Fatalf("v1 export of the mapped artifact diverges: %d vs %d bytes", want.Len(), got.Len())
			}
			// And the exported envelope loads back as a regular v1 artifact.
			back, err := slug.ReadFrom(bytes.NewReader(got.Bytes()))
			if err != nil {
				t.Fatalf("reloading exported envelope: %v", err)
			}
			if back.Algorithm() != art.Algorithm() || back.Cost() != art.Cost() {
				t.Fatalf("reloaded export: %s/%d, want %s/%d",
					back.Algorithm(), back.Cost(), art.Algorithm(), art.Cost())
			}
		})
	}
}

// TestOpenMappedRejectsDamage damages a valid v2 file in each detectable
// way and checks the sentinel taxonomy: truncation, checksum mismatch,
// structural corruption.
func TestOpenMappedRejectsDamage(t *testing.T) {
	art := buildArtifact(t, "slugger")
	path := saveV2(t, art)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	write := func(t *testing.T, b []byte) string {
		p := filepath.Join(t.TempDir(), "damaged.slgc")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}

	t.Run("truncated", func(t *testing.T) {
		p := write(t, pristine[:len(pristine)/2])
		if _, err := slug.OpenMapped(p); !errors.Is(err, slug.ErrArtifactTruncated) {
			t.Fatalf("got %v, want ErrArtifactTruncated", err)
		}
	})
	t.Run("header-flip", func(t *testing.T) {
		b := append([]byte(nil), pristine...)
		b[10] ^= 0xff
		p := write(t, b)
		if _, err := slug.OpenMapped(p); !errors.Is(err, slug.ErrArtifactChecksum) {
			t.Fatalf("got %v, want ErrArtifactChecksum", err)
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		b := append([]byte(nil), pristine...)
		copy(b, "NOPE")
		p := write(t, b)
		if _, err := slug.OpenMapped(p); !errors.Is(err, slug.ErrArtifactCorrupt) {
			t.Fatalf("got %v, want ErrArtifactCorrupt", err)
		}
	})
	t.Run("cost-edit", func(t *testing.T) {
		// A header cost that is not the hierarchy's, under a valid header
		// CRC (at header 64 + padded algorithm tag + 9 × 16 section table).
		b := append([]byte(nil), pristine...)
		binary.LittleEndian.PutUint64(b[56:64], uint64(art.Cost()+1))
		crcOff := 64 + (int(binary.LittleEndian.Uint16(b[6:8]))+7)&^7 + 9*16
		binary.LittleEndian.PutUint32(b[crcOff:], crc32.Checksum(b[:crcOff], crc32.MakeTable(crc32.Castagnoli)))
		p := write(t, b)
		if _, err := slug.OpenMapped(p); !errors.Is(err, slug.ErrArtifactCorrupt) {
			t.Fatalf("OpenMapped: got %v, want ErrArtifactCorrupt", err)
		}
		if _, err := slug.Load(p); !errors.Is(err, slug.ErrArtifactCorrupt) {
			t.Fatalf("Load: got %v, want ErrArtifactCorrupt", err)
		}
	})
	t.Run("payload-flip", func(t *testing.T) {
		// Flip one byte in the middle of the payload without touching the
		// header. OpenMapped skips the payload CRC by design — the
		// structural sweep may or may not notice, but VerifyMapped and the
		// heap Load path must always reject.
		b := append([]byte(nil), pristine...)
		b[len(b)-16] ^= 0x01
		p := write(t, b)
		if err := slug.VerifyMapped(p); !errors.Is(err, slug.ErrArtifactChecksum) {
			t.Fatalf("VerifyMapped: got %v, want ErrArtifactChecksum", err)
		}
		if _, err := slug.Load(p); !errors.Is(err, slug.ErrArtifactChecksum) {
			t.Fatalf("Load: got %v, want ErrArtifactChecksum", err)
		}
	})
	t.Run("intact", func(t *testing.T) {
		if err := slug.VerifyMapped(path); err != nil {
			t.Fatalf("VerifyMapped on the pristine file: %v", err)
		}
	})
}

// failingWriterTo errors partway through, leaving a torn write for the
// atomic-save machinery to contain.
type failingWriterTo struct{}

func (failingWriterTo) WriteTo(w io.Writer) (int64, error) {
	n, _ := w.Write([]byte("partial garbage"))
	return int64(n), fmt.Errorf("synthetic write failure")
}

// TestSaveAtomic pins the crash-safety contract of Save/SaveCompiled: a
// failed save leaves the previous file byte-intact and no temp litter.
func TestSaveAtomic(t *testing.T) {
	art := buildArtifact(t, "slugger")
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.slga")
	if err := slug.Save(path, art); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	if err := slug.Save(path, failingWriterTo{}); err == nil {
		t.Fatal("Save with a failing writer reported success")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("failed Save modified the existing artifact")
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file %q left behind", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want 1", len(entries))
	}

	// The surviving file still loads.
	if _, err := slug.Load(path); err != nil {
		t.Fatalf("artifact after failed overwrite: %v", err)
	}
}
