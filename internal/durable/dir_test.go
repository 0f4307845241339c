package durable

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileFailureLeavesNothing: a write func that fails part way
// leaves no file at the path, not even one that was there before, and a
// write that succeeds leaves exactly its bytes.
func TestWriteFileFailureLeavesNothing(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile = %v, want the write func's error", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a failed write left %s behind: %v", path, err)
	}
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := io.WriteString(w, "whole")
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if data, err := os.ReadFile(path); err != nil || string(data) != "whole" {
		t.Fatalf("after a good write %s holds %q, %v", path, data, err)
	}
}
