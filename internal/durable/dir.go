package durable

import (
	"io"
	"os"
	"path/filepath"
)

// SyncDir fsyncs a directory, so the files created, renamed or removed in
// it survive a power loss, not just the process.
func SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// WriteFile creates path, fills it through write and fsyncs it: the one
// create, write, fsync and close sequence of the tree. On any failure it
// removes the file, so path holds all that write wrote or nothing.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(path)
	}
	return err
}

// Publish renames a synced file over path and fsyncs the directory: the
// rename is the commit, and it survives a power loss.
func Publish(tmp, path string) error {
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path))
}
