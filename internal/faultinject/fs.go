package faultinject

import (
	"bytes"
	"fmt"
	"io"
	"sync"
)

// FS is an in-memory spill filesystem with an optional shared byte
// quota. It structurally implements stream.SpillFS, so tests can run
// the spill path without touching disk and can make it fail with
// ErrNoSpace at an exact byte count. A FailCreates budget makes the
// first n Create calls fail outright, modeling an unwritable spill
// directory.
type FS struct {
	mu          sync.Mutex
	files       map[string][]byte
	quota       int64 // remaining bytes; < 0 means unlimited
	failCreates int
	creates     int
	opens       int
}

// NewFS returns an FS with the given shared quota; quota < 0 means
// unlimited.
func NewFS(quota int64) *FS {
	return &FS{files: map[string][]byte{}, quota: quota}
}

// FailCreates makes the next n Create calls return ErrNoSpace.
func (fs *FS) FailCreates(n int) {
	fs.mu.Lock()
	fs.failCreates = n
	fs.mu.Unlock()
}

// Stats reports how many files were created and opened.
func (fs *FS) Stats() (creates, opens int) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.creates, fs.opens
}

// Len reports the stored size of a file, or -1 if it does not exist.
func (fs *FS) Len(name string) int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if b, ok := fs.files[name]; ok {
		return len(b)
	}
	return -1
}

// Count reports how many files the FS holds.
func (fs *FS) Count() int {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return len(fs.files)
}

// Remove deletes a file. The freed bytes do not return to the quota: it
// models bytes written, not bytes held.
func (fs *FS) Remove(name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; !ok {
		return fmt.Errorf("faultinject: remove %s: no such file", name)
	}
	delete(fs.files, name)
	return nil
}

func (fs *FS) Create(name string) (io.WriteCloser, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.failCreates > 0 {
		fs.failCreates--
		return nil, ErrNoSpace
	}
	fs.creates++
	fs.files[name] = nil
	return &fsWriter{fs: fs, name: name}, nil
}

func (fs *FS) Open(name string) (io.ReadCloser, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	b, ok := fs.files[name]
	if !ok {
		return nil, fmt.Errorf("faultinject: open %s: no such file", name)
	}
	fs.opens++
	return io.NopCloser(bytes.NewReader(b)), nil
}

type fsWriter struct {
	fs     *FS
	name   string
	closed bool
}

func (w *fsWriter) Write(p []byte) (int, error) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.closed {
		return 0, fmt.Errorf("faultinject: write %s: file closed", w.name)
	}
	n := len(p)
	if w.fs.quota >= 0 {
		if int64(n) > w.fs.quota {
			n = int(w.fs.quota)
		}
		w.fs.quota -= int64(n)
	}
	w.fs.files[w.name] = append(w.fs.files[w.name], p[:n]...)
	if n < len(p) {
		return n, ErrNoSpace
	}
	return n, nil
}

func (w *fsWriter) Close() error {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	w.closed = true
	return nil
}
