package resilience

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"quicspin/internal/fault"
)

// Storage fault errors. FaultFS returns these wrapped with the operation
// and path, so tests (and the degraded-mode logic) can classify them with
// errors.Is. They deliberately mirror the real failure modes that kill
// long-running measurement services: a full disk, a dying device, and an
// fsync the kernel refuses to honour.
var (
	// ErrNoSpace is the injected ENOSPC.
	ErrNoSpace = errors.New("no space left on device (injected)")
	// ErrIO is the injected EIO.
	ErrIO = errors.New("input/output error (injected)")
	// ErrSyncFailed is the injected fsync failure.
	ErrSyncFailed = errors.New("fsync failed (injected)")
)

// FaultFS wraps an FS with a fault plan's fs rules: every record written,
// every open and every fsync is one operation that fails with the
// configured shares (short-write tears a record mid-line with ErrIO after a
// prefix lands; write-err and open-err are ErrNoSpace; sync-err is
// ErrSyncFailed). The read path (Open, ReadDir) and RemoveAll are never
// faulted — replay correctness under write faults is the property being
// tested, and a plan that corrupted reads would test the test instead.
//
// Operations are numbered by the plan in the order they arrive —
// concurrent writers make the interleaving scheduling-dependent, but every
// individual operation's fate is an honest Bernoulli draw, and
// single-writer tests replay exactly.
type FaultFS struct {
	inner FS
	plan  *fault.Plan
}

// NewFaultFS wraps inner (nil = the real filesystem) with plan's faults.
func NewFaultFS(inner FS, plan *fault.Plan) *FaultFS {
	return &FaultFS{inner: fsOrOS(inner), plan: plan}
}

// hit numbers one operation on path and reports whether a fault of the
// given kind fires on it. Files are targeted by base name, so a plan means
// the same in every checkpoint directory.
func (f *FaultFS) hit(kind fault.Kind, path string) bool {
	return f.plan.Hit(fault.FS, kind, filepath.Base(path), f.plan.Next(fault.FS))
}

func (f *FaultFS) MkdirAll(dir string) error { return f.inner.MkdirAll(dir) }

func (f *FaultFS) OpenAppend(path string) (File, error) {
	if f.hit(fault.OpenErr, path) {
		return nil, fmt.Errorf("open %s: %w", path, ErrNoSpace)
	}
	file, err := f.inner.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file, path: path}, nil
}

func (f *FaultFS) Open(path string) (io.ReadCloser, error) { return f.inner.Open(path) }

func (f *FaultFS) ReadDir(dir string) ([]string, error) { return f.inner.ReadDir(dir) }

func (f *FaultFS) RemoveAll(path string) error { return f.inner.RemoveAll(path) }

// faultFile injects write and sync faults on one handle.
type faultFile struct {
	fs    *FaultFS
	inner File
	path  string
}

// Write spends one plan operation on each newline-terminated record in p (a
// final unterminated piece counts as one), in order, so a batch of records
// draws the faults their one-record writes would. A write-err on record k
// lands the records before it and fails with ErrNoSpace; a short-write on
// record k lands them plus a proper prefix of k and fails with ErrIO.
func (f *faultFile) Write(p []byte) (int, error) {
	plan, name := f.fs.plan, filepath.Base(f.path)
	for start := 0; start < len(p); {
		end := len(p)
		if i := bytes.IndexByte(p[start:], '\n'); i >= 0 {
			end = start + i + 1
		}
		op := plan.Next(fault.FS)
		if plan.Hit(fault.FS, fault.WriteErr, name, op) {
			return f.land(p[:start], fmt.Errorf("write %s: %w", f.path, ErrNoSpace))
		}
		if plan.Hit(fault.FS, fault.ShortWrite, name, op) {
			// The surviving prefix of the record: at least 1 byte and
			// strictly less than the record (a record of one byte tears to
			// nothing). It genuinely lands on disk: replay must cope with the
			// torn bytes this leaves mid-file or at the tail.
			n := 0
			if rec := end - start; rec > 1 {
				n = 1 + plan.Draw(fault.FS, fault.ShortWrite, name, op, rec-1)
			}
			return f.land(p[:start+n], fmt.Errorf("write %s: short write: %w", f.path, ErrIO))
		}
		start = end
	}
	return f.inner.Write(p)
}

// land writes the part of a faulted write that reaches the disk and returns
// the fault's error, or the disk's own if that write fails first.
func (f *faultFile) land(p []byte, injected error) (int, error) {
	if len(p) == 0 {
		return 0, injected
	}
	if n, err := f.inner.Write(p); err != nil {
		return n, err
	}
	return len(p), injected
}

func (f *faultFile) Sync() error {
	if f.fs.hit(fault.SyncErr, f.path) {
		return fmt.Errorf("sync %s: %w", f.path, ErrSyncFailed)
	}
	return f.inner.Sync()
}

func (f *faultFile) Close() error { return f.inner.Close() }
