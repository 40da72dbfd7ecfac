// Package atomicfile replaces a file's contents in one step. A reader
// of the path sees the old bytes or the new ones, never a mixture, and
// a failed or interrupted write leaves the old file as it was — what
// the daemon's shutdown snapshots (telemetry history, audit ledger,
// profile baseline) rely on to survive being killed mid-save.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write creates path's directory if it is missing, has write produce
// the new contents into a temporary file beside path, syncs that file
// to disk and renames it over path. On any failure the temporary file
// is removed and path is untouched.
func Write(path string, write func(io.Writer) error) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close() // a second Close after a failed Sync or Rename is harmless
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	// Without the sync, a crash soon after the rename can leave path
	// naming a file whose bytes never reached the disk.
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
