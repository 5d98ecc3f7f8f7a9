package stream

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"

	"tsync/internal/interp"
	"tsync/internal/trace"
)

// timeMapper produces the pipeline's current timestamp for an event. The
// engine and the assembly/distortion passes consume events of each rank
// strictly in order, so mappers may be sequential readers.
type timeMapper interface {
	// mapTime returns the mapped timestamp of rank's idx-th event.
	mapTime(rank, idx int, ev *trace.Event) (float64, error)
}

// identityMapper keeps raw local timestamps (BaseNone).
type identityMapper struct{}

func (identityMapper) mapTime(_, _ int, ev *trace.Event) (float64, error) { return ev.Time, nil }

// corrMapper applies an interp correction through a monotone cursor:
// every pass feeds each rank's events in file order, whose local times
// are (in practice) nondecreasing, so the piece lookup is amortized O(1)
// instead of a binary search per event. The cursor falls back to the
// exact search whenever a time regresses — including the restart between
// passes that share one mapper — so its values are bit-identical to the
// in-memory Correction.Apply on every input.
type corrMapper struct{ cur *interp.MonotoneCursor }

func newCorrMapper(c *interp.Correction) corrMapper {
	return corrMapper{cur: c.NewCursor()}
}

func (m corrMapper) mapTime(rank, _ int, ev *trace.Event) (float64, error) {
	return m.cur.Map(rank, ev.Time), nil
}

// SpillFS is where the pipeline parks its temporary per-rank streams of
// finalized timestamps. The default implementation is an OS temp
// directory the pipeline removes when done; tests substitute
// fault-injecting implementations to exercise ENOSPC-style failures on
// the spill path. One job calls it from one goroutine; an FS shared by
// concurrent jobs (tsyncd's Config.SpillFS) sees their calls interleave.
type SpillFS interface {
	Create(name string) (io.WriteCloser, error)
	Open(name string) (io.ReadCloser, error)
}

// osFS is the default SpillFS: plain files under one temp directory.
type osFS struct{ dir string }

func newOSFS() (*osFS, error) {
	dir, err := os.MkdirTemp("", "tsync-stream-")
	if err != nil {
		return nil, err
	}
	return &osFS{dir: dir}, nil
}

func (fs *osFS) Create(name string) (io.WriteCloser, error) {
	return os.Create(filepath.Join(fs.dir, name))
}

func (fs *osFS) Open(name string) (io.ReadCloser, error) {
	return os.Open(filepath.Join(fs.dir, name))
}

// spillSet is a set of per-rank float64 streams holding finalized
// corrected timestamps: the CLC and Lamport sinks write them as entries
// finalize, and later passes read them back in lockstep with the events.
//
// Every file handle the set hands out is tracked, and Close is
// idempotent: whatever path a run takes out of the pipeline — success,
// decode error, cancellation — the deferred Close closes every
// outstanding handle and, when the set owns its directory, removes it.
// No abort path may leak a temp file or descriptor. The set belongs to
// the goroutine running the job: sinks write and the final sweep reads
// from it alone, so nothing here locks.
type spillSet struct {
	fs    SpillFS
	owned *osFS // non-nil when the set created (and must remove) the dir
	names []string

	handles []*spillHandle
	closed  bool
}

// newSpillSet creates the per-rank stream set on fs, or on a fresh OS
// temp directory when fs is nil.
func newSpillSet(ranks int, fs SpillFS) (*spillSet, error) {
	s := &spillSet{fs: fs, names: make([]string, ranks)}
	if fs == nil {
		ofs, err := newOSFS()
		if err != nil {
			return nil, err
		}
		s.fs, s.owned = ofs, ofs
	}
	for i := range s.names {
		s.names[i] = fmt.Sprintf("rank%06d.t", i)
	}
	return s, nil
}

// spillHandle wraps one created or opened file with an idempotent Close,
// so the set's teardown and the normal read/write paths can both close
// it without double-close errors.
type spillHandle struct {
	c      io.Closer
	closed bool
}

func (h *spillHandle) Close() error {
	if h.closed {
		return nil
	}
	h.closed = true
	return h.c.Close()
}

// track registers a handle for teardown. It fails if the set is already
// closed (a late Create after abort would otherwise leak).
func (s *spillSet) track(c io.Closer) (*spillHandle, error) {
	h := &spillHandle{c: c}
	if s.closed {
		c.Close()
		return nil, fmt.Errorf("stream: spill set already closed")
	}
	s.handles = append(s.handles, h)
	return h, nil
}

// Close closes every outstanding handle and removes the owned directory.
// It is idempotent and safe to defer alongside normal close paths.
func (s *spillSet) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	for _, h := range s.handles {
		if cerr := h.Close(); err == nil {
			err = cerr
		}
	}
	s.handles = nil
	if s.owned != nil {
		if rerr := os.RemoveAll(s.owned.dir); err == nil {
			err = rerr
		}
	}
	return err
}

// spillBuf is the size of every spill read and write: bufio's default,
// which the floats used to go through one 8-byte call each, so a SpillFS
// sees the call sequence it always has (the fault tests count on it).
const spillBuf = 4096

// spillWriter appends float64s to one rank's stream, one Write per
// spillBuf bytes. Like bufio it writes a full buffer out when the next
// float arrives, not when the last one fit, and once a Write has failed
// it keeps failing.
type spillWriter struct {
	h   *spillHandle
	f   io.Writer
	buf [spillBuf]byte
	n   int // bytes buffered
	err error
}

func (s *spillSet) writer(rank int) (*spillWriter, error) {
	f, err := s.fs.Create(s.names[rank])
	if err != nil {
		return nil, err
	}
	h, err := s.track(f)
	if err != nil {
		return nil, err
	}
	return &spillWriter{h: h, f: f}, nil
}

func (w *spillWriter) write(v float64) error {
	if w.n == len(w.buf) {
		if err := w.flush(); err != nil {
			return err
		}
	}
	binary.LittleEndian.PutUint64(w.buf[w.n:], math.Float64bits(v))
	w.n += 8
	return nil
}

func (w *spillWriter) flush() error {
	if w.err == nil && w.n > 0 {
		n, err := w.f.Write(w.buf[:w.n])
		if err == nil && n < w.n {
			err = io.ErrShortWrite
		}
		if w.err = err; err == nil {
			w.n = 0
		}
	}
	return w.err
}

func (w *spillWriter) close() error {
	err := w.flush()
	if cerr := w.h.Close(); err == nil {
		err = cerr
	}
	return err
}

// spillReader reads one rank's stream back, one Read per spillBuf bytes.
type spillReader struct {
	f    io.Reader
	buf  [spillBuf]byte
	r, w int // buf[r:w] is unread
}

// next returns the stream's next float: io.EOF at a clean end,
// io.ErrUnexpectedEOF inside a float.
func (rd *spillReader) next() (float64, error) {
	if rd.w-rd.r < 8 {
		// a Read may end inside a float: its head moves to the front
		rd.w = copy(rd.buf[:], rd.buf[rd.r:rd.w])
		rd.r = 0
		n, err := io.ReadAtLeast(rd.f, rd.buf[rd.w:], 8-rd.w)
		if rd.w += n; err != nil {
			if err == io.EOF && rd.w > 0 {
				err = io.ErrUnexpectedEOF
			}
			return 0, err
		}
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(rd.buf[rd.r:]))
	rd.r += 8
	return v, nil
}

// spillMapper replays a spillSet as a timeMapper: each rank's floats are
// read sequentially, one per event. The set tracks the files it opens and
// closes them with everything else.
type spillMapper struct {
	set     *spillSet
	readers []*spillReader
	next    []int
}

func (s *spillSet) mapper() *spillMapper {
	return &spillMapper{
		set:     s,
		readers: make([]*spillReader, len(s.names)),
		next:    make([]int, len(s.names)),
	}
}

func (m *spillMapper) mapTime(rank, idx int, _ *trace.Event) (float64, error) {
	rd := m.readers[rank]
	if rd == nil {
		f, err := m.set.fs.Open(m.set.names[rank])
		if err != nil {
			return 0, err
		}
		if _, err := m.set.track(f); err != nil {
			return 0, err
		}
		rd = &spillReader{f: f}
		m.readers[rank] = rd
	}
	if idx != m.next[rank] {
		return 0, fmt.Errorf("stream: spill read out of order: rank %d idx %d (want %d)", rank, idx, m.next[rank])
	}
	m.next[rank]++
	v, err := rd.next()
	if err != nil {
		return 0, fmt.Errorf("stream: spill read rank %d idx %d: %w", rank, idx, err)
	}
	return v, nil
}
