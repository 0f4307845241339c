package durable

import (
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

// WriteFile writes data to path and fsyncs the file.
func WriteFile(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
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
