//go:build !race

// On a 2-vCPU host the whole suite takes about 1.2 s in a normal build
// and about 21 s under the race detector, where it would add a fifth to
// scripts/verify.sh's race pass while racing nothing new:
// TestSweepParallelismDeterminism in internal/experiments already races
// the sweep engine.

package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"caladrius/internal/experiments"
)

// TestFiguresReproduceResults regenerates every table in-process at
// default parallelism and holds each CSV to results/ byte for byte. The
// experiment table must name exactly the committed CSVs, each once, and
// -only fig05 must run fig05's row but write fig05.csv alone.
func TestFiguresReproduceResults(t *testing.T) {
	committed, err := filepath.Glob(filepath.Join("..", "..", "results", "*.csv"))
	if err != nil {
		t.Fatal(err)
	}
	var want, names []string
	for _, p := range committed {
		want = append(want, filepath.Base(p))
	}
	for _, e := range experiments.Experiments {
		for _, name := range e.Tables {
			names = append(names, name+".csv")
		}
	}
	sort.Strings(names)
	if strings.Join(names, " ") != strings.Join(want, " ") {
		t.Fatalf("experiment tables %v, results/ holds %v", names, want)
	}

	all := t.TempDir()
	if err := run([]string{"-out", all}, io.Discard); err != nil {
		t.Fatal(err)
	}
	assertCSVs(t, all, want)

	only := t.TempDir()
	if err := run([]string{"-only", "fig05", "-out", only}, io.Discard); err != nil {
		t.Fatal(err)
	}
	assertCSVs(t, only, []string{"fig05.csv"})
}

// assertCSVs checks that dir holds exactly the files named in want
// (sorted), each identical to its results/ copy.
func assertCSVs(t *testing.T, dir string, want []string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, e := range entries {
		got = append(got, e.Name())
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("%s holds %v, want %v", dir, got, want)
	}
	for _, name := range want {
		ref, err := os.ReadFile(filepath.Join("..", "..", "results", name))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(ref, out) {
			t.Errorf("%s differs from results/%s:\n%s", name, name, out)
		}
	}
}
