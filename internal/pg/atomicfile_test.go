package pg

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.pgsnap")
	writeString := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	if err := WriteFileAtomic(path, writeString("old bytes")); err != nil {
		t.Fatal(err)
	}

	// A writer that fails part-way must leave the target untouched and
	// no temp file behind.
	boom := errors.New("boom")
	err := WriteFileAtomic(path, func(w io.Writer) error {
		io.WriteString(w, "half of the new")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the writer's error", err)
	}
	assertDir := func(want string) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != want {
			t.Errorf("target holds %q, want %q", got, want)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 {
			var names []string
			for _, e := range ents {
				names = append(names, e.Name())
			}
			t.Errorf("directory holds %v, want only the target", names)
		}
	}
	assertDir("old bytes")

	if err := WriteFileAtomic(path, writeString("new bytes")); err != nil {
		t.Fatal(err)
	}
	assertDir("new bytes")

	// A missing directory fails before anything is written.
	if err := WriteFileAtomic(filepath.Join(dir, "absent", "x"), writeString("x")); err == nil {
		t.Error("write into a missing directory succeeded")
	}
}
