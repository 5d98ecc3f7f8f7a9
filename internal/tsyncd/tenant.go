package tsyncd

// Per-tenant resource accounting, generalized from faultinject's
// QuotaWriter/FS: every byte a tenant uploads, every event its traces
// index, and every byte its sessions spill charges a shared budget, and
// exhaustion surfaces as a classified protocol error instead of an
// unbounded allocation. Budgets are held while sessions are active and
// released when they end, so N concurrent sessions of one tenant share
// one budget rather than multiplying it.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"tsync/internal/stream"
)

// Quota bounds one tenant's concurrent resource use. Zero fields are
// unlimited, so the zero Quota admits everything.
type Quota struct {
	// MaxBytes caps the trace bytes buffered across the tenant's active
	// sessions.
	MaxBytes int64
	// MaxEvents caps the indexed event count of any single trace.
	MaxEvents int64
	// MaxSpillBytes caps reorder-window spill written across the
	// tenant's active sessions.
	MaxSpillBytes int64
}

// tenant tracks one tenant's in-use resources against its quota.
type tenant struct {
	name string
	q    Quota

	mu    sync.Mutex
	bytes int64
	spill int64
}

// chargeBytes reserves n upload bytes, or reports quota-bytes.
func (t *tenant) chargeBytes(n int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.q.MaxBytes > 0 && t.bytes+n > t.q.MaxBytes {
		return errf(CodeQuotaBytes, "tenant %q: %d+%d bytes exceeds quota %d", t.name, t.bytes, n, t.q.MaxBytes)
	}
	t.bytes += n
	return nil
}

// chargeSpill reserves n spill bytes, or reports quota-spill.
func (t *tenant) chargeSpill(n int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.q.MaxSpillBytes > 0 && t.spill+n > t.q.MaxSpillBytes {
		return errf(CodeQuotaSpill, "tenant %q: %d+%d spill bytes exceeds quota %d", t.name, t.spill, n, t.q.MaxSpillBytes)
	}
	t.spill += n
	return nil
}

// checkEvents validates a trace's event count against the quota. Event
// budgets are per trace, not cumulative: the cost they bound (one
// session's working set) ends with the session.
func (t *tenant) checkEvents(n int64) error {
	if t.q.MaxEvents > 0 && n > t.q.MaxEvents {
		return errf(CodeQuotaEvents, "tenant %q: trace holds %d events, quota %d", t.name, n, t.q.MaxEvents)
	}
	return nil
}

// release returns reserved bytes to the budget at session end.
func (t *tenant) release(bytes, spill int64) {
	t.mu.Lock()
	t.bytes -= bytes
	t.spill -= spill
	t.mu.Unlock()
}

// quotaFS decorates a stream.SpillFS so every spilled byte charges the
// tenant budget. It tracks its own total so the session can release
// exactly what it reserved.
type quotaFS struct {
	fs stream.SpillFS
	tn *tenant

	mu    sync.Mutex
	total int64
}

func (q *quotaFS) Create(name string) (io.WriteCloser, error) {
	w, err := q.fs.Create(name)
	if err != nil {
		return nil, err
	}
	return &quotaSpillWriter{w: w, q: q}, nil
}

func (q *quotaFS) Open(name string) (io.ReadCloser, error) { return q.fs.Open(name) }

// spilled reports the bytes this session charged, for release.
func (q *quotaFS) spilled() int64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.total
}

type quotaSpillWriter struct {
	w io.WriteCloser
	q *quotaFS
}

func (w *quotaSpillWriter) Write(p []byte) (int, error) {
	if err := w.q.tn.chargeSpill(int64(len(p))); err != nil {
		return 0, err
	}
	w.q.mu.Lock()
	w.q.total += int64(len(p))
	w.q.mu.Unlock()
	return w.w.Write(p)
}

func (w *quotaSpillWriter) Close() error { return w.w.Close() }

// osSpillFS is the default per-session spill backing: plain files under
// one temp directory the session removes when it ends. It mirrors
// stream's internal default, but lives here so the quota decorator can
// wrap it — stream only skips cleanup for caller-provided FSes, so the
// session owns the directory's lifetime.
type osSpillFS struct{ dir string }

func (fs *osSpillFS) Create(name string) (io.WriteCloser, error) {
	return os.Create(filepath.Join(fs.dir, name))
}

func (fs *osSpillFS) Open(name string) (io.ReadCloser, error) {
	return os.Open(filepath.Join(fs.dir, name))
}

// sessionFS gives one session its own namespace on a spill FS every
// session shares: the engine names its files by rank only, so without
// the prefix two concurrent sessions would write the same files. It
// remembers what it created so the session can leave the base as it
// found it.
type sessionFS struct {
	fs     stream.SpillFS
	prefix string

	mu    sync.Mutex
	names []string
}

func (f *sessionFS) Create(name string) (io.WriteCloser, error) {
	name = f.prefix + name
	w, err := f.fs.Create(name)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	f.names = append(f.names, name)
	f.mu.Unlock()
	return w, nil
}

func (f *sessionFS) Open(name string) (io.ReadCloser, error) { return f.fs.Open(f.prefix + name) }

// remove deletes the session's files when the base can delete at all
// (stream.SpillFS itself has no such method; an FS that keeps files,
// like a directory, is expected to offer it).
func (f *sessionFS) remove() {
	rm, ok := f.fs.(interface{ Remove(name string) error })
	if !ok {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, name := range f.names {
		_ = rm.Remove(name) // best effort, like the RemoveAll of the default directory
	}
	f.names = nil
}

// newSessionSpill builds session id's spill FS: its own namespace on
// base when one is configured, otherwise a fresh OS temp directory.
// Either way the result charges tn per byte, and cleanup removes
// whatever the session wrote — aborted runs must leave the host
// spill-clean.
func newSessionSpill(base stream.SpillFS, tn *tenant, id uint64) (*quotaFS, func(), error) {
	if base != nil {
		sfs := &sessionFS{fs: base, prefix: fmt.Sprintf("s%d-", id)}
		return &quotaFS{fs: sfs, tn: tn}, sfs.remove, nil
	}
	dir, err := os.MkdirTemp("", "tsyncd-spill-")
	if err != nil {
		return nil, nil, err
	}
	return &quotaFS{fs: &osSpillFS{dir: dir}, tn: tn}, func() { os.RemoveAll(dir) }, nil
}

// tenantFor returns the accounting record for name, creating it with
// the configured (or default) quota on first use.
func (s *Server) tenantFor(name string) *tenant {
	if name == "" {
		name = "default"
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if t, ok := s.tenants[name]; ok {
		return t
	}
	q, ok := s.cfg.Tenants[name]
	if !ok {
		q = s.cfg.DefaultQuota
	}
	t := &tenant{name: name, q: q}
	s.tenants[name] = t
	return t
}

// String renders a quota for logs.
func (q Quota) String() string {
	return fmt.Sprintf("bytes=%d events=%d spill=%d", q.MaxBytes, q.MaxEvents, q.MaxSpillBytes)
}
