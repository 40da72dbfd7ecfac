package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestWrite(t *testing.T) {
	errWriter := errors.New("writer failed half way")
	content := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	cases := []struct {
		name    string
		path    string // under the test's directory
		before  string // path's contents beforehand; "" = no file
		write   func(io.Writer) error
		wantErr error
		after   string // path's contents afterwards; "" = no file
	}{
		{name: "a new file", path: "h.tsdb", write: content("new"), after: "new"},
		{name: "an existing target is replaced", path: "h.tsdb", before: "old", write: content("new"), after: "new"},
		{name: "a missing parent is created", path: "newdir/deeper/h.tsdb", write: content("new"), after: "new"},
		{
			name: "a failing writer leaves the old file intact", path: "h.tsdb", before: "old",
			write: func(w io.Writer) error {
				io.WriteString(w, "half of the n")
				return errWriter
			},
			wantErr: errWriter, after: "old",
		},
		{
			name: "a failing writer leaves no file where there was none", path: "newdir/h.tsdb",
			write:   func(io.Writer) error { return errWriter },
			wantErr: errWriter,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), c.path)
			if c.before != "" {
				if err := os.WriteFile(path, []byte(c.before), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			if err := Write(path, c.write); !errors.Is(err, c.wantErr) {
				t.Fatalf("Write error = %v, want %v", err, c.wantErr)
			}
			got, err := os.ReadFile(path)
			if c.after == "" && !errors.Is(err, os.ErrNotExist) {
				t.Errorf("path holds %q (err %v), want no file", got, err)
			} else if c.after != "" && (err != nil || string(got) != c.after) {
				t.Errorf("path holds %q (err %v), want %q", got, err, c.after)
			}
			if left, _ := filepath.Glob(filepath.Join(filepath.Dir(path), "*.tmp")); len(left) > 0 {
				t.Errorf("temporary files left behind: %v", left)
			}
		})
	}
}

// A target that cannot be renamed over (a non-empty directory) and a
// parent that cannot be created (a file in the way) are errors that
// leave nothing behind.
func TestWriteUnwritableTarget(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "taken")
	if err := os.MkdirAll(filepath.Join(target, "child"), 0o755); err != nil {
		t.Fatal(err)
	}
	write := func(w io.Writer) error { _, err := io.WriteString(w, "new"); return err }
	if err := Write(target, write); err == nil {
		t.Error("Write over a non-empty directory succeeded")
	}
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Write(filepath.Join(file, "h.tsdb"), write); err == nil {
		t.Error("Write under a regular file succeeded")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Errorf("temporary file %s left behind", e.Name())
		}
	}
}
