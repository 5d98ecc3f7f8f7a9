package tsyncd_test

// Server-side contract tests: concurrent sessions return bytes
// bit-identical to the one-shot pipeline (the CLI's exact code path),
// admission control rejects with typed errors, quotas surface as clean
// protocol failures, stalled clients are reaped, and the client's
// reconnect loop follows its seeded backoff schedule.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tsync/internal/backoff"
	"tsync/internal/core"
	"tsync/internal/faultinject"
	"tsync/internal/stream"
	"tsync/internal/trace"
	"tsync/internal/tsyncd"
	"tsync/internal/xrand"
)

const serverSeed = 0x75e4cd10

// testServer runs a Server over a loopback listener with an
// idempotent shutdown.
type testServer struct {
	srv    *tsyncd.Server
	ln     net.Listener
	cancel context.CancelFunc
	done   chan error
	once   sync.Once
	err    error
}

func startServer(t *testing.T, cfg tsyncd.Config) *testServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	ts := &testServer{srv: tsyncd.New(cfg), ln: ln, cancel: cancel, done: make(chan error, 1)}
	go func() { ts.done <- ts.srv.Serve(ctx, ln) }()
	t.Cleanup(func() {
		if err := ts.shutdown(); err != nil {
			t.Errorf("server shutdown: %v", err)
		}
	})
	return ts
}

func (ts *testServer) addr() string { return ts.ln.Addr().String() }

// shutdown cancels the serve context and waits for the full drain.
func (ts *testServer) shutdown() error {
	ts.once.Do(func() {
		ts.cancel()
		ts.err = <-ts.done
	})
	return ts.err
}

func (ts *testServer) client(seed uint64) *tsyncd.Client {
	return tsyncd.NewClient(tsyncd.ClientConfig{
		Addr: ts.addr(), Seed: seed, Timeout: 10 * time.Second,
	})
}

// corpus is one input trace with its reference outcome.
type corpus struct {
	name  string
	data  []byte
	hello tsyncd.Hello
	// wantBytes/wantChecksum/wantResult come from running the identical
	// stream.Pipeline directly — the CLI's exact code path.
	wantBytes    []byte
	wantChecksum string
	wantPartial  bool
	wantResult   *stream.Result
}

// synthBytes renders one synthetic trace into memory.
func synthBytes(t *testing.T, spec stream.SynthSpec) ([]byte, []trace.Event, tsyncd.Hello) {
	t.Helper()
	var buf bytes.Buffer
	init, fin, err := stream.Synth(spec, &buf)
	if err != nil {
		t.Fatal(err)
	}
	h := tsyncd.Hello{Base: "interp", CLC: true, WantTrace: true, Init: init, Fin: fin}
	return buf.Bytes(), nil, h
}

// reference runs the pipeline the way cmd/tracesync would and records
// the expected bytes, checksum, and result.
func reference(t *testing.T, c *corpus) {
	t.Helper()
	src, err := stream.NewSourceOpts(bytes.NewReader(c.data), stream.SourceOptions{
		Salvage: c.hello.Salvage, MaxSkipBytes: c.hello.MaxSkipBytes,
	})
	if err != nil {
		t.Fatalf("%s: reference source: %v", c.name, err)
	}
	b, err := core.ParseBase(c.hello.Base)
	if err != nil {
		t.Fatal(err)
	}
	pipe := stream.Pipeline{
		Base: b, CLC: c.hello.CLC,
		Options: stream.Options{Window: c.hello.Window},
	}
	var out bytes.Buffer
	res, err := pipe.RunContext(context.Background(), src, &out, c.hello.Init, c.hello.Fin)
	if err != nil {
		t.Fatalf("%s: reference run: %v", c.name, err)
	}
	h := fnv.New64a()
	h.Write(out.Bytes())
	c.wantBytes = out.Bytes()
	c.wantChecksum = fmt.Sprintf("%016x", h.Sum64())
	c.wantPartial = src.Salvaged()
	c.wantResult = res
}

// buildCorpus returns the acceptance mix: v1, v2 row, v2 columnar, and
// a salvaged (deterministically corrupted) v2 trace.
func buildCorpus(t *testing.T) []*corpus {
	t.Helper()
	var cs []*corpus
	add := func(name string, data []byte, h tsyncd.Hello) {
		c := &corpus{name: name, data: data, hello: h}
		reference(t, c)
		cs = append(cs, c)
	}

	d1, _, h1 := synthBytes(t, stream.SynthSpec{Ranks: 4, Steps: 300, CollEvery: 6, Seed: xrand.SeedAt(serverSeed, 0)})
	add("v1", d1, h1)

	d2, _, h2 := synthBytes(t, stream.SynthSpec{Ranks: 3, Steps: 400, CollEvery: 5, Seed: xrand.SeedAt(serverSeed, 1), Version: trace.Version2})
	add("v2-row", d2, h2)

	d3, _, h3 := synthBytes(t, stream.SynthSpec{Ranks: 5, Steps: 200, CollEvery: 4, Seed: xrand.SeedAt(serverSeed, 2), Version: trace.Version2, Columnar: true})
	add("v2-columnar", d3, h3)

	d4, _, h4 := synthBytes(t, stream.SynthSpec{Ranks: 4, Steps: 500, CollEvery: 8, Seed: xrand.SeedAt(serverSeed, 3), Version: trace.Version2})
	flips := faultinject.NewBurstFlips(xrand.SeedAt(serverSeed, 4), int64(len(d4)), 3, 64)
	corrupted := make([]byte, len(d4))
	copy(corrupted, d4)
	flips.Apply(corrupted, 0)
	h4.Salvage = true
	add("v2-salvaged", corrupted, h4)

	return cs
}

// TestLoopbackBitIdentical is the tentpole acceptance: 8 concurrent
// sessions over loopback, spanning v1/v2/columnar/salvage inputs, each
// returning bytes and analysis results bit-identical to the direct
// pipeline run, with matching FNV checksums.
func TestLoopbackBitIdentical(t *testing.T) {
	corpora := buildCorpus(t)
	ts := startServer(t, tsyncd.Config{MaxSessions: 4, MaxQueue: 16})

	const sessions = 8
	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		c := corpora[i%len(corpora)]
		wg.Add(1)
		go func(i int, c *corpus) {
			defer wg.Done()
			var out bytes.Buffer
			done, err := ts.client(xrand.SeedAt(serverSeed, 10+uint64(i))).Sync(
				context.Background(), c.hello, bytes.NewReader(c.data), &out)
			if err != nil {
				errs <- fmt.Errorf("session %d (%s): %w", i, c.name, err)
				return
			}
			if !bytes.Equal(out.Bytes(), c.wantBytes) {
				errs <- fmt.Errorf("session %d (%s): %d returned bytes differ from the direct pipeline's %d", i, c.name, out.Len(), len(c.wantBytes))
				return
			}
			if done.Checksum != c.wantChecksum {
				errs <- fmt.Errorf("session %d (%s): checksum %s, want %s", i, c.name, done.Checksum, c.wantChecksum)
				return
			}
			if done.Partial != c.wantPartial {
				errs <- fmt.Errorf("session %d (%s): partial=%v, want %v", i, c.name, done.Partial, c.wantPartial)
				return
			}
			if !resultsEqual(done.Result, c.wantResult) {
				errs <- fmt.Errorf("session %d (%s): analysis result differs from the direct pipeline's", i, c.name)
			}
		}(i, c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// rawSession speaks one whole session by hand: the given HELLO payload,
// the trace in DATA frames, EOF, then RESULT frames up to DONE.
func rawSession(t *testing.T, addr string, hello, data []byte) ([]byte, tsyncd.Done) {
	t.Helper()
	conn := rawConn(t, addr)
	defer conn.Close()
	sendFrame(t, conn, 0x01, hello)
	if typ, payload := readReply(t, conn); typ != 0x11 {
		t.Fatalf("frame %#x (%q), want ACCEPT", typ, payload)
	}
	for len(data) > 0 {
		n := min(32<<10, len(data))
		sendFrame(t, conn, 0x02, data[:n])
		data = data[n:]
	}
	sendFrame(t, conn, 0x03, nil)
	var out []byte
	for {
		typ, payload := readReply(t, conn)
		switch typ {
		case 0x14:
			out = append(out, payload...)
		case 0x15:
			var done tsyncd.Done
			if err := json.Unmarshal(payload, &done); err != nil {
				t.Fatalf("undecodable DONE %q: %v", payload, err)
			}
			return out, done
		default:
			t.Fatalf("frame %#x (%q), want RESULT or DONE", typ, payload)
		}
	}
}

// TestHelloCannotSizeServerBuffers: the slab size and merge fan-out are
// not a client's to set. A HELLO still carrying the "batch" and "shards"
// fields an older client sent, at values that would have sized a
// terabyte slab, is served like one without them, bit-identical to the
// direct pipeline, and the server goes on to serve the next session.
func TestHelloCannotSizeServerBuffers(t *testing.T) {
	data, _, h := synthBytes(t, stream.SynthSpec{Ranks: 4, Steps: 300, CollEvery: 6, Seed: xrand.SeedAt(serverSeed, 30)})
	c := &corpus{name: "v1", data: data, hello: h}
	reference(t, c)
	plain, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	oversized := append([]byte(`{"batch":1099511627776,"shards":1000000,`), plain[1:]...)

	ts := startServer(t, tsyncd.Config{})
	for _, hello := range [][]byte{oversized, plain} {
		out, done := rawSession(t, ts.addr(), hello, data)
		if !bytes.Equal(out, c.wantBytes) {
			t.Fatalf("HELLO %.40s...: %d returned bytes differ from the direct pipeline's %d", hello, len(out), len(c.wantBytes))
		}
		if done.Checksum != c.wantChecksum || !resultsEqual(done.Result, c.wantResult) {
			t.Fatalf("HELLO %.40s...: checksum %s (want %s) or analysis result differs", hello, done.Checksum, c.wantChecksum)
		}
	}
}

// meetFS holds each session's first spill Create until two sessions
// have made one, so both are mid-run on the shared FS at the same time.
// A session is told apart by its name prefix (up to the first '-').
type meetFS struct {
	*faultinject.FS
	mu   sync.Mutex
	seen map[string]bool
	both chan struct{}
}

func (m *meetFS) Create(name string) (io.WriteCloser, error) {
	session, _, _ := strings.Cut(name, "-")
	m.mu.Lock()
	if !m.seen[session] {
		m.seen[session] = true
		if len(m.seen) == 2 {
			close(m.both)
		}
	}
	m.mu.Unlock()
	<-m.both
	return m.FS.Create(name)
}

// TestSharedSpillFS: with Config.SpillFS set, every session spills to
// the same FS, and the engine names spill files by rank only. Two
// concurrent sessions correcting different traces must not read each
// other's corrected times, and must leave the FS empty.
func TestSharedSpillFS(t *testing.T) {
	var cs [2]*corpus
	for i, spec := range []stream.SynthSpec{
		{Ranks: 4, Steps: 300, CollEvery: 6, Seed: xrand.SeedAt(serverSeed, 40)},
		{Ranks: 4, Steps: 260, CollEvery: 4, Seed: xrand.SeedAt(serverSeed, 41)},
	} {
		c := &corpus{name: fmt.Sprintf("trace-%d", i)}
		c.data, _, c.hello = synthBytes(t, spec)
		reference(t, c)
		cs[i] = c
	}
	if bytes.Equal(cs[0].wantBytes, cs[1].wantBytes) {
		t.Fatal("the two traces correct to the same bytes")
	}
	fs := &meetFS{FS: faultinject.NewFS(-1), seen: map[string]bool{}, both: make(chan struct{})}
	ts := startServer(t, tsyncd.Config{MaxSessions: 2, SpillFS: fs})

	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func(i int, c *corpus) {
			defer wg.Done()
			var out bytes.Buffer
			done, err := ts.client(uint64(i)).Sync(context.Background(), c.hello, bytes.NewReader(c.data), &out)
			if err != nil {
				t.Errorf("%s: %v", c.name, err)
				return
			}
			if !bytes.Equal(out.Bytes(), c.wantBytes) || done.Checksum != c.wantChecksum {
				t.Errorf("%s: bytes (checksum %s) differ from the direct pipeline's (%s)", c.name, done.Checksum, c.wantChecksum)
			}
			if !resultsEqual(done.Result, c.wantResult) {
				t.Errorf("%s: analysis result differs from the direct pipeline's", c.name)
			}
		}(i, c)
	}
	wg.Wait()
	if err := ts.shutdown(); err != nil {
		t.Fatal(err)
	}
	if creates, _ := fs.Stats(); creates != 8 {
		t.Errorf("%d spill files created, want one per rank per session (8)", creates)
	}
	if n := fs.Count(); n != 0 {
		t.Errorf("%d spill files left on the shared FS after both sessions ended", n)
	}
}

// resultsEqual compares analysis results through their JSON rendering —
// the same canonical form the wire uses, covering every exported field.
func resultsEqual(a, b *stream.Result) bool {
	ab, aerr := json.Marshal(a)
	bb, berr := json.Marshal(b)
	return aerr == nil && berr == nil && bytes.Equal(ab, bb)
}

// rawConn opens a raw protocol connection for tests that speak frames
// by hand.
func rawConn(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func sendFrame(t *testing.T, conn net.Conn, typ byte, payload []byte) {
	t.Helper()
	buf := make([]byte, 5+len(payload))
	buf[0] = typ
	binary.LittleEndian.PutUint32(buf[1:5], uint32(len(payload)))
	copy(buf[5:], payload)
	if _, err := conn.Write(buf); err != nil {
		t.Fatal(err)
	}
}

func sendJSON(t *testing.T, conn net.Conn, typ byte, v any) {
	t.Helper()
	blob, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sendFrame(t, conn, typ, blob)
}

// readReply reads one server frame.
func readReply(t *testing.T, conn net.Conn) (byte, []byte) {
	t.Helper()
	var hdr [5]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		t.Fatalf("read frame header: %v", err)
	}
	payload := make([]byte, binary.LittleEndian.Uint32(hdr[1:5]))
	if _, err := io.ReadFull(conn, payload); err != nil {
		t.Fatalf("read frame payload: %v", err)
	}
	return hdr[0], payload
}

// expectError asserts the next server frame is a REJECT or ERROR with
// the given code.
func expectError(t *testing.T, conn net.Conn, want tsyncd.Code) {
	t.Helper()
	typ, payload := readReply(t, conn)
	if typ != 0x12 && typ != 0x16 {
		t.Fatalf("frame type %#x, want REJECT/ERROR (payload %q)", typ, payload)
	}
	var perr tsyncd.Error
	if err := json.Unmarshal(payload, &perr); err != nil {
		t.Fatalf("undecodable error payload %q", payload)
	}
	if perr.Code != want {
		t.Fatalf("error code %q (%s), want %q", perr.Code, perr.Msg, want)
	}
}

// holdSession opens a session and parks it mid-upload, occupying a
// slot until release is called.
func holdSession(t *testing.T, addr string) (release func()) {
	t.Helper()
	conn := rawConn(t, addr)
	sendJSON(t, conn, 0x01, tsyncd.Hello{Base: "none"})
	typ, payload := readReply(t, conn)
	if typ != 0x11 {
		t.Fatalf("holder got frame %#x (%q), want ACCEPT", typ, payload)
	}
	return func() { conn.Close() }
}

func TestAdmissionBusy(t *testing.T) {
	ts := startServer(t, tsyncd.Config{MaxSessions: 1, MaxQueue: -1})
	release := holdSession(t, ts.addr())
	defer release()

	conn := rawConn(t, ts.addr())
	sendJSON(t, conn, 0x01, tsyncd.Hello{Base: "none"})
	expectError(t, conn, tsyncd.CodeBusy)
}

func TestAdmissionQueueTimeout(t *testing.T) {
	ts := startServer(t, tsyncd.Config{MaxSessions: 1, MaxQueue: 4, QueueTimeout: 50 * time.Millisecond})
	release := holdSession(t, ts.addr())
	defer release()

	conn := rawConn(t, ts.addr())
	sendJSON(t, conn, 0x01, tsyncd.Hello{Base: "none"})
	expectError(t, conn, tsyncd.CodeQueueTimeout)
}

func TestDrainingRejectsUpload(t *testing.T) {
	ts := startServer(t, tsyncd.Config{MaxSessions: 2, DrainTimeout: 5 * time.Second})
	conn := rawConn(t, ts.addr())
	sendJSON(t, conn, 0x01, tsyncd.Hello{Base: "none"})
	if typ, payload := readReply(t, conn); typ != 0x11 {
		t.Fatalf("frame %#x (%q), want ACCEPT", typ, payload)
	}
	// Begin the drain, then keep uploading: the spool loop must refuse
	// with a classified draining error (possibly one frame later — the
	// poll sits at the top of the loop).
	ts.cancel()
	sendFrame(t, conn, 0x02, []byte("data"))
	sendFrame(t, conn, 0x02, []byte("data"))
	expectError(t, conn, tsyncd.CodeDraining)
	conn.Close()
	if err := ts.shutdown(); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

func TestQuotaBytes(t *testing.T) {
	ts := startServer(t, tsyncd.Config{DefaultQuota: tsyncd.Quota{MaxBytes: 64}})
	conn := rawConn(t, ts.addr())
	sendJSON(t, conn, 0x01, tsyncd.Hello{Base: "none", Tenant: "smallco"})
	if typ, _ := readReply(t, conn); typ != 0x11 {
		t.Fatal("want ACCEPT")
	}
	sendFrame(t, conn, 0x02, make([]byte, 128))
	expectError(t, conn, tsyncd.CodeQuotaBytes)
}

func TestQuotaEvents(t *testing.T) {
	data, _, hello := synthBytes(t, stream.SynthSpec{Ranks: 2, Steps: 50, Seed: xrand.SeedAt(serverSeed, 20)})
	ts := startServer(t, tsyncd.Config{DefaultQuota: tsyncd.Quota{MaxEvents: 10}})
	_, err := ts.client(1).Sync(context.Background(), hello, bytes.NewReader(data), nil)
	var perr *tsyncd.Error
	if !errors.As(err, &perr) || perr.Code != tsyncd.CodeQuotaEvents {
		t.Fatalf("got %v, want quota-events", err)
	}
}

func TestQuotaSpill(t *testing.T) {
	// Every CLC run spills 8 bytes per event of finalized timestamps, so
	// a tiny spill budget must fail any non-trivial session — cleanly.
	data, _, hello := synthBytes(t, stream.SynthSpec{Ranks: 3, Steps: 200, CollEvery: 4, Seed: xrand.SeedAt(serverSeed, 21)})
	ts := startServer(t, tsyncd.Config{
		DefaultQuota: tsyncd.Quota{MaxSpillBytes: 256},
		SpillFS:      faultinject.NewFS(-1),
	})
	_, err := ts.client(1).Sync(context.Background(), hello, bytes.NewReader(data), nil)
	var perr *tsyncd.Error
	if !errors.As(err, &perr) || perr.Code != tsyncd.CodeQuotaSpill {
		t.Fatalf("got %v, want quota-spill", err)
	}
}

// TestIdleReap: a slow-loris client (half a frame header, then silence)
// is reaped at the idle deadline with a classified error, while a
// well-behaved concurrent session completes untouched.
func TestIdleReap(t *testing.T) {
	data, _, hello := synthBytes(t, stream.SynthSpec{Ranks: 2, Steps: 100, Seed: xrand.SeedAt(serverSeed, 22)})
	ts := startServer(t, tsyncd.Config{MaxSessions: 4, IdleTimeout: 150 * time.Millisecond})

	loris := rawConn(t, ts.addr())
	if _, err := loris.Write([]byte{0x01, 0xff}); err != nil { // a stalled, partial HELLO
		t.Fatal(err)
	}

	if _, err := ts.client(1).Sync(context.Background(), hello, bytes.NewReader(data), nil); err != nil {
		t.Fatalf("well-behaved session alongside a slow loris: %v", err)
	}
	expectError(t, loris, tsyncd.CodeIdleTimeout)
}

func TestMalformedFrames(t *testing.T) {
	ts := startServer(t, tsyncd.Config{})

	t.Run("bad-first-frame-type", func(t *testing.T) {
		conn := rawConn(t, ts.addr())
		sendFrame(t, conn, 0x02, []byte("data before hello"))
		expectError(t, conn, tsyncd.CodeMalformed)
	})
	t.Run("oversized-frame", func(t *testing.T) {
		conn := rawConn(t, ts.addr())
		hdr := []byte{0x01, 0xff, 0xff, 0xff, 0xff}
		if _, err := conn.Write(hdr); err != nil {
			t.Fatal(err)
		}
		expectError(t, conn, tsyncd.CodeMalformed)
	})
	t.Run("undecodable-hello", func(t *testing.T) {
		conn := rawConn(t, ts.addr())
		sendFrame(t, conn, 0x01, []byte("{not json"))
		expectError(t, conn, tsyncd.CodeMalformed)
	})
	t.Run("unknown-base", func(t *testing.T) {
		conn := rawConn(t, ts.addr())
		sendJSON(t, conn, 0x01, tsyncd.Hello{Base: "quantum"})
		expectError(t, conn, tsyncd.CodeMalformed)
	})
	t.Run("bad-trace-bytes", func(t *testing.T) {
		conn := rawConn(t, ts.addr())
		sendJSON(t, conn, 0x01, tsyncd.Hello{Base: "none"})
		if typ, _ := readReply(t, conn); typ != 0x11 {
			t.Fatal("want ACCEPT")
		}
		sendFrame(t, conn, 0x02, []byte("this is no trace"))
		sendFrame(t, conn, 0x03, nil)
		expectError(t, conn, tsyncd.CodeBadTrace)
	})
}

// TestClientAbort: fAbort mid-upload yields a classified aborted error.
func TestClientAbort(t *testing.T) {
	ts := startServer(t, tsyncd.Config{})
	conn := rawConn(t, ts.addr())
	sendJSON(t, conn, 0x01, tsyncd.Hello{Base: "none"})
	if typ, _ := readReply(t, conn); typ != 0x11 {
		t.Fatal("want ACCEPT")
	}
	sendFrame(t, conn, 0x02, []byte("partial"))
	sendFrame(t, conn, 0x04, nil)
	expectError(t, conn, tsyncd.CodeAborted)
}

// TestClientReconnect: the first dials fail, the retry schedule follows
// the seeded backoff exactly, and the session then completes.
func TestClientReconnect(t *testing.T) {
	data, _, hello := synthBytes(t, stream.SynthSpec{Ranks: 2, Steps: 100, Seed: xrand.SeedAt(serverSeed, 30)})
	ts := startServer(t, tsyncd.Config{})

	fails := 2
	var delays []time.Duration
	cl := tsyncd.NewClient(tsyncd.ClientConfig{
		Seed: 7, Attempts: 5, Timeout: 10 * time.Second,
		Dial: func(ctx context.Context) (net.Conn, error) {
			if fails > 0 {
				fails--
				return nil, errors.New("connection refused (injected)")
			}
			var d net.Dialer
			return d.DialContext(ctx, "tcp", ts.addr())
		},
		Sleep: func(ctx context.Context, d time.Duration) error {
			delays = append(delays, d)
			return nil
		},
	})
	done, err := cl.Sync(context.Background(), hello, bytes.NewReader(data), nil)
	if err != nil {
		t.Fatal(err)
	}
	if done.Checksum == "" {
		t.Fatal("no checksum in Done")
	}

	// The recorded delays must be exactly the seeded schedule.
	want := backoff.New(backoff.Default(), 7)
	if len(delays) != 2 {
		t.Fatalf("%d reconnect sleeps, want 2", len(delays))
	}
	for i, d := range delays {
		if w := want.Next(); d != w {
			t.Errorf("delay %d = %v, want %v (seeded schedule)", i, d, w)
		}
	}
}

// TestClientPermanentErrorNoRetry: classified failures must not retry.
func TestClientPermanentErrorNoRetry(t *testing.T) {
	ts := startServer(t, tsyncd.Config{DefaultQuota: tsyncd.Quota{MaxBytes: 16}})
	dials := 0
	cl := tsyncd.NewClient(tsyncd.ClientConfig{
		Seed: 1, Attempts: 5, Timeout: 10 * time.Second,
		Dial: func(ctx context.Context) (net.Conn, error) {
			dials++
			var d net.Dialer
			return d.DialContext(ctx, "tcp", ts.addr())
		},
		Sleep: func(ctx context.Context, d time.Duration) error { return nil },
	})
	_, err := cl.Sync(context.Background(), tsyncd.Hello{Base: "none"}, bytes.NewReader(make([]byte, 256)), nil)
	var perr *tsyncd.Error
	if !errors.As(err, &perr) || perr.Code != tsyncd.CodeQuotaBytes {
		t.Fatalf("got %v, want quota-bytes", err)
	}
	if dials != 1 {
		t.Fatalf("%d dials for a permanent failure, want 1", dials)
	}
}

// TestPingPong: keepalives are answered during upload.
func TestPingPong(t *testing.T) {
	ts := startServer(t, tsyncd.Config{})
	conn := rawConn(t, ts.addr())
	sendJSON(t, conn, 0x01, tsyncd.Hello{Base: "none"})
	if typ, _ := readReply(t, conn); typ != 0x11 {
		t.Fatal("want ACCEPT")
	}
	sendFrame(t, conn, 0x05, nil)
	if typ, _ := readReply(t, conn); typ != 0x17 {
		t.Fatalf("frame %#x, want PONG", typ)
	}
}

// TestResultEquality guards the JSON comparison helper itself.
func TestResultEquality(t *testing.T) {
	a := &stream.Result{Stats: stream.Stats{Events: 7}}
	b := &stream.Result{Stats: stream.Stats{Events: 7}}
	if !resultsEqual(a, b) {
		t.Fatal("equal results compare unequal")
	}
	b.Stats.Events = 8
	if resultsEqual(a, b) {
		t.Fatal("different results compare equal")
	}
	if !reflect.DeepEqual(a, &stream.Result{Stats: stream.Stats{Events: 7}}) {
		t.Fatal("sanity: DeepEqual disagrees")
	}
}
