package resilience

import (
	"io"
	"os"
	"path/filepath"
)

// FS is the filesystem surface the checkpoint journal writes through. It
// exists so every journal code path — appends, fsync, rotation — can be
// chaos-tested against injected storage faults (short writes, ENOSPC, EIO,
// fsync failure) the same way the shard layer chaos-tests the UDP
// transport. Production code uses OSFS; tests wrap it in a FaultFS.
type FS interface {
	// MkdirAll creates dir and any missing parents.
	MkdirAll(dir string) error
	// OpenAppend opens path for appending, creating it when missing.
	OpenAppend(path string) (File, error)
	// Open opens path for reading.
	Open(path string) (io.ReadCloser, error)
	// ReadDir returns the names (not paths) of dir's entries, files and
	// subdirectories alike, sorted. A missing directory returns an empty
	// slice, not an error.
	ReadDir(dir string) ([]string, error)
	// RemoveAll deletes path and everything under it; a missing path is
	// not an error.
	RemoveAll(path string) error
}

// File is one journal file handle: sequential writes, explicit durability.
type File interface {
	io.Writer
	// Sync flushes written data to stable storage (fsync).
	Sync() error
	Close() error
}

// OSFS is the real filesystem.
var OSFS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }

func (osFS) OpenAppend(path string) (File, error) {
	return os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
}

func (osFS) Open(path string) (io.ReadCloser, error) { return os.Open(path) }

func (osFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	names := make([]string, len(entries))
	for i, e := range entries {
		names[i] = e.Name()
	}
	return names, nil
}

func (osFS) RemoveAll(path string) error { return os.RemoveAll(path) }

// fsOrOS returns fs, defaulting to the real filesystem.
func fsOrOS(fs FS) FS {
	if fs == nil {
		return OSFS
	}
	return fs
}

// joinPath is filepath.Join, aliased so journal code reads uniformly.
func joinPath(dir, name string) string { return filepath.Join(dir, name) }
