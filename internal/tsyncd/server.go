package tsyncd

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"sync"
	"time"

	"tsync/internal/core"
	"tsync/internal/stream"
	"tsync/internal/trace"
)

// Config tunes the server. The zero value selects the defaults below;
// durations are relative timeouts (the package converts to absolute
// conn deadlines in exactly one place, clock.go).
type Config struct {
	// MaxSessions bounds the sessions running concurrently; default 4.
	MaxSessions int
	// MaxQueue bounds the admissions waiting for a slot beyond the
	// running ones; further arrivals are rejected busy. Default 16;
	// negative means no queue (reject immediately when full).
	MaxQueue int
	// QueueTimeout bounds the wait for a slot; default 5s.
	QueueTimeout time.Duration
	// IdleTimeout reaps clients that stall between frames ("slow
	// loris"); it also bounds each outbound frame write. Default 30s.
	IdleTimeout time.Duration
	// DrainTimeout is the grace in-flight sessions get after Serve's
	// context cancels before they are aborted. Default 10s.
	DrainTimeout time.Duration
	// DefaultQuota applies to tenants absent from Tenants. The zero
	// quota is unlimited.
	DefaultQuota Quota
	// Tenants maps tenant names to their quotas.
	Tenants map[string]Quota
	// SpillFS overrides the filesystem sessions spill reorder-window
	// overflow to; nil selects OS temp files, exactly like the CLI.
	// Sessions share it: each prefixes its file names with its id, and
	// deletes its files when it ends if the FS has a Remove(name) method.
	SpillFS stream.SpillFS
	// Logf, when non-nil, receives one line per notable server event.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 16
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0
	}
	if c.QueueTimeout <= 0 {
		c.QueueTimeout = 5 * time.Second
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 30 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 10 * time.Second
	}
	return c
}

// Server runs trace-sync sessions over a listener. Construct with New,
// run with Serve; Serve returns only after a full drain, so a returned
// Serve means no session goroutines remain and every spill file is
// gone.
type Server struct {
	cfg   Config
	slots chan struct{}

	mu       sync.Mutex
	tenants  map[string]*tenant
	sessions map[uint64]*stream.Session
	conns    map[net.Conn]struct{}
	nextID   uint64
	queued   int
	draining bool

	wg sync.WaitGroup
}

// New returns an idle server with cfg (zero fields defaulted).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:      cfg,
		slots:    make(chan struct{}, cfg.MaxSessions),
		tenants:  map[string]*tenant{},
		sessions: map[uint64]*stream.Session{},
		conns:    map[net.Conn]struct{}{},
	}
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Serve accepts connections on ln until ctx cancels, then drains: the
// listener closes, new admissions are rejected with CodeDraining,
// in-flight sessions get DrainTimeout to finish before they are
// aborted, and Serve returns once every connection handler has exited.
// The listener error that ends the accept loop is returned only when it
// was not the shutdown path's own Close.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	stop := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
		case <-stop:
		}
		ln.Close()
	}()
	var serveErr error
	for ctx.Err() == nil {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() == nil {
				serveErr = err
			}
			break
		}
		s.wg.Add(1)
		go s.handle(ctx, conn)
	}
	close(stop)
	s.drain()
	return serveErr
}

// drain finishes every in-flight handler: a grace period first, then
// abort. It runs on Serve's goroutine after the accept loop ends.
func (s *Server) drain() {
	s.mu.Lock()
	s.draining = true
	n := len(s.sessions)
	s.mu.Unlock()
	s.logf("draining: %d sessions in flight", n)

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	grace, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
	defer cancel()
	select {
	case <-done:
	case <-grace.Done():
		s.abortAll()
		<-done
	}
	s.logf("drain complete")
}

// abortAll cancels every registered session and closes every tracked
// connection, unblocking handlers stuck in conn reads or writes.
func (s *Server) abortAll() {
	s.mu.Lock()
	sessions := make([]*stream.Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess) //tsync:unordered — every session is aborted and every conn closed; the visit order cannot change any outcome
	}
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c) //tsync:unordered — every session is aborted and every conn closed; the visit order cannot change any outcome
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.Abort()
	}
	for _, c := range conns {
		c.Close()
	}
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// admit acquires a session slot: immediately, or by queueing up to
// MaxQueue waiters for at most QueueTimeout. A nil return means the
// caller holds a slot and must releaseSlot.
func (s *Server) admit(ctx context.Context) *Error {
	if ctx.Err() != nil || s.isDraining() {
		return errf(CodeDraining, "server is shutting down")
	}
	select {
	case s.slots <- struct{}{}:
		return nil
	default:
	}
	s.mu.Lock()
	if s.queued >= s.cfg.MaxQueue {
		s.mu.Unlock()
		return errf(CodeBusy, "%d sessions running, %d queued", s.cfg.MaxSessions, s.cfg.MaxQueue)
	}
	s.queued++
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.queued--
		s.mu.Unlock()
	}()
	wait, cancel := context.WithTimeout(ctx, s.cfg.QueueTimeout)
	defer cancel()
	select {
	case s.slots <- struct{}{}:
		return nil
	case <-wait.Done():
		if ctx.Err() != nil {
			return errf(CodeDraining, "server is shutting down")
		}
		return errf(CodeQueueTimeout, "no session slot within %s", s.cfg.QueueTimeout)
	}
}

func (s *Server) releaseSlot() { <-s.slots }

func (s *Server) trackConn(c net.Conn) {
	s.mu.Lock()
	s.conns[c] = struct{}{}
	s.mu.Unlock()
}

func (s *Server) untrackConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) register(id uint64, sess *stream.Session) {
	s.mu.Lock()
	s.sessions[id] = sess
	s.mu.Unlock()
}

func (s *Server) unregister(id uint64) {
	s.mu.Lock()
	delete(s.sessions, id)
	s.mu.Unlock()
}

// handle owns one connection end to end.
func (s *Server) handle(ctx context.Context, conn net.Conn) {
	defer s.wg.Done()
	s.trackConn(conn)
	defer s.untrackConn(conn)
	defer conn.Close()
	if err := s.session(ctx, conn); err != nil {
		s.logf("session %s: %v", conn.RemoteAddr(), err)
	}
}

// reply sends a typed JSON frame under a fresh write deadline, best
// effort: the peer may already be gone.
func (s *Server) reply(conn net.Conn, typ byte, v any) {
	armWrite(conn, s.cfg.IdleTimeout)
	if err := writeJSONFrame(conn, typ, v); err != nil {
		s.logf("reply %s: %v", conn.RemoteAddr(), err)
	}
}

// classifyIO maps a raw conn read error onto the protocol: deadline
// expiry is the idle reaper firing; anything else is the peer dying,
// which has no one left to classify for.
func classifyIO(err error) *Error {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return errf(CodeIdleTimeout, "no frame within the idle deadline")
	}
	return nil
}

// session speaks the protocol on one connection: handshake, admission,
// spool, run, result. The returned error is diagnostic only (it goes to
// Logf); every classifiable failure has already been sent to the peer
// as a REJECT or ERROR frame.
func (s *Server) session(ctx context.Context, conn net.Conn) error {
	br := bufio.NewReader(conn)

	// Handshake. The idle deadline covers it: a connection that never
	// says hello is reaped like one that stalls mid-stream.
	armRead(conn, s.cfg.IdleTimeout)
	typ, payload, err := readFrame(br, DefaultMaxFrame)
	if err != nil {
		var perr *Error
		if errors.As(err, &perr) {
			s.reply(conn, fError, perr)
			return perr
		}
		if ce := classifyIO(err); ce != nil {
			s.reply(conn, fError, ce)
			return ce
		}
		return err
	}
	var h Hello
	if typ != fHello {
		perr := errf(CodeMalformed, "expected HELLO, got frame type %#x", typ)
		s.reply(conn, fError, perr)
		return perr
	}
	if err := json.Unmarshal(payload, &h); err != nil {
		perr := errf(CodeMalformed, "undecodable HELLO: %v", err)
		s.reply(conn, fError, perr)
		return perr
	}
	pipe, perr := buildPipeline(h)
	if perr != nil {
		s.reply(conn, fReject, perr)
		return perr
	}

	// Admission.
	if perr := s.admit(ctx); perr != nil {
		s.reply(conn, fReject, perr)
		return perr
	}
	defer s.releaseSlot()
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	s.mu.Unlock()
	s.reply(conn, fAccept, Accept{Session: id})

	// Spool the trace body under the tenant's byte budget. The reorder
	// window's spill path is accounted separately below; this budget
	// bounds what a tenant can make the server buffer.
	tn := s.tenantFor(h.Tenant)
	var spool bytes.Buffer
	var charged int64
	defer func() { tn.release(charged, 0) }()
	for {
		if ctx.Err() != nil {
			// The server began draining while this client was still
			// uploading; without its remaining bytes the session can
			// never finish, so it is refused rather than kept alive.
			perr := errf(CodeDraining, "server is shutting down")
			s.reply(conn, fError, perr)
			return perr
		}
		armRead(conn, s.cfg.IdleTimeout)
		typ, payload, err := readFrame(br, DefaultMaxFrame)
		if err != nil {
			var perr *Error
			if errors.As(err, &perr) {
				s.reply(conn, fError, perr)
				return perr
			}
			if ce := classifyIO(err); ce != nil {
				s.reply(conn, fError, ce)
				return ce
			}
			return err
		}
		switch typ {
		case fData:
			if perr := tn.chargeBytes(int64(len(payload))); perr != nil {
				s.reply(conn, fError, perr)
				return perr
			}
			charged += int64(len(payload))
			spool.Write(payload)
		case fPing:
			armWrite(conn, s.cfg.IdleTimeout)
			if err := writeFrame(conn, fPong, nil); err != nil {
				return err
			}
		case fAbort:
			perr := errf(CodeAborted, "client abort")
			s.reply(conn, fError, perr)
			return perr
		case fEOF:
		default:
			perr := errf(CodeMalformed, "unexpected frame type %#x during upload", typ)
			s.reply(conn, fError, perr)
			return perr
		}
		if typ == fEOF {
			break
		}
	}

	return s.run(conn, id, h, pipe, tn, spool.Bytes())
}

// run indexes the spooled trace and executes the correction session,
// streaming the corrected bytes back when asked and always reporting
// the output checksum.
func (s *Server) run(conn net.Conn, id uint64, h Hello, pipe stream.Pipeline, tn *tenant, data []byte) error {
	src, err := stream.NewSourceOpts(bytes.NewReader(data), stream.SourceOptions{
		Salvage: h.Salvage, MaxSkipBytes: h.MaxSkipBytes,
	})
	if err != nil {
		perr := errf(CodeBadTrace, "%v", err)
		s.reply(conn, fError, perr)
		return perr
	}
	// The event quota is charged from the index. For a strict v2 spool
	// that index was hopped from block heads, no event decoded yet: these
	// are the counts of the CRC-checked proc blocks, which the hop
	// required the frames' own counts to sum to exactly, and a frame that
	// holds another number of events than it declares fails the run's
	// first pass (CodeBadTrace) before any result is sent.
	var events int64
	for _, ph := range src.Procs() {
		events += int64(ph.EventCount)
	}
	if perr := tn.checkEvents(events); perr != nil {
		s.reply(conn, fError, perr)
		return perr
	}

	// Spill writes charge the tenant budget through the decorated FS;
	// the session owns (and removes) its spill directory when no FS was
	// configured.
	qfs, spillCleanup, err := newSessionSpill(s.cfg.SpillFS, tn, id)
	if err != nil {
		perr := errf(CodeInternal, "spill dir: %v", err)
		s.reply(conn, fError, perr)
		return perr
	}
	defer spillCleanup()
	pipe.Options.SpillFS = qfs
	defer func() { tn.release(0, qfs.spilled()) }()

	sess := stream.NewSession(pipe, src)
	s.register(id, sess)
	defer s.unregister(id)

	hash := fnv.New64a()
	var out io.Writer = hash
	if h.WantTrace {
		out = io.MultiWriter(hash, &frameWriter{conn: conn, idle: s.cfg.IdleTimeout})
	}
	// The session runs under its own root: drain must not cancel it
	// implicitly — in-flight work gets the grace period, and abortAll
	// ends it explicitly through sess.Abort after that.
	res, err := sess.Run(context.Background(), out, h.Init, h.Fin)
	if err != nil {
		perr := classifyRun(err, sess.State())
		if perr == nil {
			return err // conn-level write failure: no peer left to tell
		}
		s.reply(conn, fError, perr)
		return perr
	}
	done := Done{
		Result:   res,
		Checksum: fmt.Sprintf("%016x", hash.Sum64()),
		Partial:  src.Salvaged(),
	}
	s.reply(conn, fDone, done)
	return nil
}

// classifyRun maps a pipeline failure onto the protocol's error codes.
// A nil return means the failure was the connection itself dying — the
// one case with nothing useful to send.
func classifyRun(err error, st stream.SessionState) *Error {
	var perr *Error
	switch {
	case errors.As(err, &perr):
		return perr // quota errors travel out of the spill FS intact
	case errors.Is(err, stream.ErrWindowExceeded):
		return errf(CodeWindow, "%v", err)
	case errors.Is(err, stream.ErrUnsupported):
		return errf(CodeUnsupported, "%v", err)
	case errors.Is(err, trace.ErrBadFormat), errors.Is(err, trace.ErrSalvageBudget):
		return errf(CodeBadTrace, "%v", err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		if st == stream.SessionAborted {
			return errf(CodeAborted, "session aborted by server drain")
		}
		return errf(CodeAborted, "%v", err)
	case isConnError(err):
		return nil
	}
	return errf(CodeInternal, "%v", err)
}

// isConnError reports failures whose cause is the transport: the
// corrected-trace writer hit a dead or stalled peer.
func isConnError(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) ||
		errors.Is(err, net.ErrClosed) ||
		errors.Is(err, io.ErrClosedPipe) ||
		errors.Is(err, io.ErrUnexpectedEOF)
}

// buildPipeline translates a Hello into the same stream.Pipeline the
// CLI would build from equal flags; any discrepancy here would break
// the bit-identity contract, so it deliberately shares the parser
// entry points (core.ParseBase, stream.ParsePolicy) with cmd/tracesync.
func buildPipeline(h Hello) (stream.Pipeline, *Error) {
	var pipe stream.Pipeline
	if h.Base != "" {
		b, err := core.ParseBase(h.Base)
		if err != nil {
			return pipe, errf(CodeMalformed, "%v", err)
		}
		pipe.Base = b
	}
	policy := stream.PolicySpill
	if h.Policy != "" {
		p, err := stream.ParsePolicy(h.Policy)
		if err != nil {
			return pipe, errf(CodeMalformed, "%v", err)
		}
		policy = p
	}
	pipe.CLC = h.CLC
	pipe.Options = stream.Options{Window: h.Window, Policy: policy}
	return pipe, nil
}

// frameWriter chunks the corrected trace into RESULT frames, refreshing
// the write deadline per chunk so one stalled client cannot wedge its
// handler past the idle budget.
type frameWriter struct {
	conn net.Conn
	idle time.Duration
}

func (w *frameWriter) Write(p []byte) (int, error) {
	total := 0
	for len(p) > 0 {
		n := len(p)
		if n > resultChunk {
			n = resultChunk
		}
		armWrite(w.conn, w.idle)
		if err := writeFrame(w.conn, fResult, p[:n]); err != nil {
			return total, err
		}
		total += n
		p = p[n:]
	}
	return total, nil
}
