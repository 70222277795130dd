package pg

import (
	"io"
	"os"
	"path/filepath"
	"runtime"
)

// WriteFileAtomic replaces the file at path with the bytes write
// produces, so a crash at any point leaves either the old file or the
// complete new one, never a torn mix. write fills a temp file in the
// same directory, which is fsynced and renamed over path; the directory
// is then fsynced too, so the rename itself survives a power loss. When
// any step fails, path keeps its old bytes and the temp file is removed.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // a no-op once the rename succeeded
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making a rename inside it durable.
// Windows cannot fsync directories; there the rename is as durable as
// the file system makes it.
func syncDir(dir string) error {
	if runtime.GOOS == "windows" {
		return nil
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
