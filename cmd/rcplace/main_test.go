package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"testing"
	"time"
)

// TestProfilesWritten: both profile files are written and non-empty, and
// CPU samples taken under a pprof "stage" label carry it.
func TestProfilesWritten(t *testing.T) {
	dir := t.TempDir()
	cpuPath, memPath := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := startProfiles(cpuPath, memPath)
	if err != nil {
		t.Fatal(err)
	}
	var sink []int
	pprof.Do(context.Background(), pprof.Labels("stage", "parse"), func(context.Context) {
		for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
			sink = append(sink[:0], make([]int, 1024)...)
		}
	})
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{cpuPath, memPath} {
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() == 0 {
			t.Errorf("%s is empty", path)
		}
	}

	// A pprof file is a gzipped protobuf whose string table holds every
	// label key and value.
	raw, err := os.ReadFile(cpuPath)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("cpu profile is not gzip: %v", err)
	}
	pb, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(pb, []byte("stage")) || !bytes.Contains(pb, []byte("parse")) {
		t.Error("cpu profile carries no stage=parse label")
	}
}

func TestProfilesOff(t *testing.T) {
	stop, err := startProfiles("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestProfilesBadPath(t *testing.T) {
	if _, err := startProfiles(filepath.Join(t.TempDir(), "missing", "cpu.pprof"), ""); err == nil {
		t.Error("unwritable cpu profile path accepted")
	}
}
