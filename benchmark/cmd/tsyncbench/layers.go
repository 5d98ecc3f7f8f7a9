package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tsync/internal/backoff"
	"tsync/internal/core"
	"tsync/internal/interp"
	"tsync/internal/stream"
	"tsync/internal/trace"
	"tsync/internal/tsyncd"
)

// The traced run measures layers from outside: it times calls into
// their public functions (the probes) and decorates the seams the engine
// already exposes (io.ReaderAt input, io.Writer output, stream.SpillFS,
// tsyncd.ClientConfig.Dial). Probes nest — P1 ⊂ P2, P3 ⊂ P4 ⊂ P5 — so a
// layer's self time is a difference of medians.

// span is one timed interval. Spans of one probe repetition or one job
// share Job; Parent is the ID of the span that caused it (-1 for none).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Job    int     `json:"job"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	jobs  int
}

func (t *tracer) newJob() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.jobs++
	return t.jobs
}

func (t *tracer) begin(name string, parent, job int) int {
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Job: job, Name: name, Start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0).Seconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span whose interval was measured elsewhere.
func (t *tracer) record(name string, parent, job int, start, end time.Time) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans), Parent: parent, Job: job, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(),
	})
	return len(t.spans) - 1
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// countingReaderAt counts what the engine reads from its input. Decode
// goroutines of different ranks read concurrently.
type countingReaderAt struct {
	r            io.ReaderAt
	calls, bytes atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.calls.Add(1)
	c.bytes.Add(int64(n))
	return n, err
}

// countingWriter counts and times what the engine writes to its output.
// The engine writes from one goroutine at a time.
type countingWriter struct {
	w            io.Writer
	calls, bytes int64
	busy         time.Duration
}

func (c *countingWriter) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.w.Write(p)
	c.busy += time.Since(t0)
	c.calls++
	c.bytes += int64(n)
	return n, err
}

// spillFS is a directory-backed stream.SpillFS that counts and times the
// spill traffic and records one span per file opened.
type spillFS struct {
	dir         string
	tr          *tracer
	parent, job int

	files, written, read atomic.Int64
	busyNs               atomic.Int64
}

type spillFile struct {
	fs   *spillFS
	f    *os.File
	span int
	n    *atomic.Int64
}

func (fs *spillFS) open(name, what string, open func(string) (*os.File, error), n *atomic.Int64) (*spillFile, error) {
	t0 := time.Now()
	f, err := open(filepath.Join(fs.dir, name))
	fs.busyNs.Add(int64(time.Since(t0)))
	if err != nil {
		return nil, err
	}
	return &spillFile{fs: fs, f: f, n: n, span: fs.tr.begin(what+" "+name, fs.parent, fs.job)}, nil
}

func (fs *spillFS) Create(name string) (io.WriteCloser, error) {
	fs.files.Add(1)
	return fs.open(name, "spill.write", os.Create, &fs.written)
}

func (fs *spillFS) Open(name string) (io.ReadCloser, error) {
	return fs.open(name, "spill.read", os.Open, &fs.read)
}

func (f *spillFile) io(op func([]byte) (int, error), p []byte) (int, error) {
	t0 := time.Now()
	n, err := op(p)
	f.fs.busyNs.Add(int64(time.Since(t0)))
	f.n.Add(int64(n))
	return n, err
}

func (f *spillFile) Write(p []byte) (int, error) { return f.io(f.f.Write, p) }
func (f *spillFile) Read(p []byte) (int, error)  { return f.io(f.f.Read, p) }

func (f *spillFile) Close() error {
	t0 := time.Now()
	err := f.f.Close()
	f.fs.busyNs.Add(int64(time.Since(t0)))
	f.fs.tr.end(f.span)
	return err
}

// phaseConn splits a client session into upload, wait and download by
// watching the wire: the upload ends with the last Write, the wait ends
// when the first Read after it returns bytes. Only the client's session
// goroutine uses it.
type phaseConn struct {
	net.Conn
	up, down   int64
	dialed     time.Time
	lastWrite  time.Time
	firstReply time.Time
}

func (c *phaseConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.up += int64(n)
	c.lastWrite, c.firstReply = time.Now(), time.Time{}
	return n, err
}

func (c *phaseConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.down += int64(n)
	if n > 0 && c.firstReply.IsZero() {
		c.firstReply = time.Now()
	}
	return n, err
}

// prober runs the probes of one traced run.
type prober struct {
	h      *harness
	tr     *tracer
	budget time.Duration
	res    *result
	// kernelMs pools every probe's speed-kernel samples for the record.
	kernelMs []float64
}

// stat is the outcome of one probe: medians over its repetitions, at
// reference speed, and the factor that brought them there.
type stat struct{ wall, cpu, factor float64 }

// probe repeats f five times, or fewer once the repetitions have used
// the probe's budget, and returns the median time (steal discounted, as
// a watch reports it) and CPU time. f returns the interval to count when
// that is less than the whole call (zero counts the whole call), and it
// is discounted in the same proportion; parent is its span.
func (p *prober) probe(name string, f func(parent, job int) (time.Duration, error)) (stat, error) {
	var walls, cpus []float64
	speed := speedometer{scale: p.h.speed.scale}
	begun := time.Now()
	for rep := 0; rep < 5 && (rep == 0 || time.Since(begun) < p.budget); rep++ {
		runtime.GC()
		speed.sample()
		job := p.tr.newJob()
		id := p.tr.begin(name, -1, job)
		cpu0, sw := cpuTime(), startWatch()
		d, err := f(id, job)
		own, lost := sw.stop()
		cpu := cpuTime() - cpu0
		p.tr.end(id)
		if err != nil {
			return stat{}, fmt.Errorf("%s: %w", name, err)
		}
		wall := own.Seconds()
		if d != 0 {
			wall = d.Seconds() * own.Seconds() / (own + lost).Seconds()
		}
		walls, cpus = append(walls, wall), append(cpus, cpu.Seconds())
	}
	speed.sample()
	p.kernelMs = append(p.kernelMs, speed.ms...)
	k := speed.factor()
	return stat{k * median(walls), k * median(cpus), k}, nil
}

// checkedJob counts one checked job toward the run's verdict.
func (p *prober) checkedJob(err error) {
	p.res.Attempted++
	if err != nil {
		p.res.Failed++
		if p.res.FirstFailure == "" {
			p.res.FirstFailure = err.Error()
		}
	}
}

// eachRank decodes the input rank by rank into a reusable batch and
// hands each batch to timed; it returns the time spent inside timed
// only, so the decode that feeds a codec or mapping probe stays out of
// the probe's number.
func eachRank(src *stream.Source, timed func(rank int, evs []trace.Event) error) (time.Duration, error) {
	var evs []trace.Event
	var total time.Duration
	for r := 0; r < src.Ranks(); r++ {
		evs = evs[:0]
		cur := src.Cursor(r)
		for {
			var ev trace.Event
			err := cur.Next(&ev)
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, err
			}
			evs = append(evs, ev)
		}
		t0 := time.Now()
		if err := timed(r, evs); err != nil {
			return 0, err
		}
		total += time.Since(t0)
	}
	return total, nil
}

// mapSink keeps the compiler from discarding the mapping probe's loop.
var mapSink float64

// runTraced is the per-layer run. It writes its spans to spansPath.
func runTraced(index int, cfg config, spansPath string) (*result, error) {
	cfg.setups = 1
	e := newEnv(cfg)
	tr := &tracer{t0: time.Now()}
	h, _, referenceS, err := setUp(index, cfg)
	if err != nil {
		return nil, err
	}
	defer h.close()
	in, w := h.in, h.w
	events := float64(in.events)
	p := &prober{
		h: h, tr: tr, budget: time.Duration(cfg.seconds / 10 * float64(time.Second)),
		res: &result{Workload: w.name, Metrics: metricSet{}, Extra: metricSet{}},
	}
	m := p.res.Metrics
	perEvent := func(s float64) metric { return metric{s / events * 1e9, "ns"} }

	// P0: the index pass.
	var src *stream.Source
	var indexRead int64
	p0, err := p.probe("P0 stream.NewSource", func(int, int) (time.Duration, error) {
		cr := &countingReaderAt{r: bytes.NewReader(in.data)}
		s, err := stream.NewSource(cr)
		src, indexRead = s, cr.bytes.Load()
		return 0, err
	})
	if err != nil {
		return nil, err
	}
	m["stream.index_s"] = metric{p0.wall, "s"}
	m["stream.index_read_bytes"] = metric{float64(indexRead), "bytes"}
	m["stream.shards"] = metric{float64(stream.ShardCount(src.Ranks(), 0)), "count"}
	m["trace.bytes_per_event_in"] = metric{float64(len(in.data)) / events, "bytes"}

	// P1: every rank's cursor to its end, one rank after the other.
	p1, err := p.probe("P1 stream.Cursor.Next", func(int, int) (time.Duration, error) {
		var ev trace.Event
		for r := 0; r < src.Ranks(); r++ {
			cur := src.Cursor(r)
			for {
				if err := cur.Next(&ev); err == io.EOF {
					break
				} else if err != nil {
					return 0, err
				}
			}
		}
		return 0, nil
	})
	if err != nil {
		return nil, err
	}
	m["stream.cursor_ns_per_event"] = perEvent(p1.wall)

	// The codec alone: one sequential EventReader pass over the file.
	dec, err := p.probe("trace.EventReader.Read", func(int, int) (time.Duration, error) {
		er, err := trace.NewEventReader(bytes.NewReader(in.data))
		if err != nil {
			return 0, err
		}
		var ev trace.Event
		for {
			if _, err := er.NextProc(); err == io.EOF {
				return 0, nil
			} else if err != nil {
				return 0, err
			}
			for {
				if err := er.Read(&ev); err == io.EOF {
					break
				} else if err != nil {
					return 0, err
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	m["trace.decode_ns_per_event"] = perEvent(dec.wall)

	// The encoder alone: v1 EventWriter.Write of the decoded events.
	var encoded int64
	enc, err := p.probe("trace.EventWriter.Write", func(int, int) (time.Duration, error) {
		cw := &countingWriter{w: io.Discard}
		ew, err := trace.NewEventWriter(cw, src.Header())
		if err != nil {
			return 0, err
		}
		d, err := eachRank(src, func(r int, evs []trace.Event) error {
			if err := ew.BeginProc(src.Procs()[r]); err != nil {
				return err
			}
			for i := range evs {
				if err := ew.Write(&evs[i]); err != nil {
					return err
				}
			}
			return nil
		})
		if err == nil {
			err = ew.Close()
		}
		encoded = cw.bytes
		return d, err
	})
	if err != nil {
		return nil, err
	}
	m["trace.encode_ns_per_event"] = perEvent(enc.wall)
	m["trace.bytes_per_event_out"] = metric{float64(encoded) / events, "bytes"}

	// The time map: building it, then mapping every timestamp.
	var corr *interp.Correction
	build, err := p.probe("interp.Linear", func(int, int) (time.Duration, error) {
		c, err := interp.Linear(in.init, in.fin)
		corr = c
		return 0, err
	})
	if err != nil {
		return nil, err
	}
	m["interp.build_s"] = metric{build.wall, "s"}
	mapped, err := p.probe("interp.MonotoneCursor.Map", func(int, int) (time.Duration, error) {
		cur := corr.NewCursor()
		return eachRank(src, func(r int, evs []trace.Event) error {
			var sum float64
			for i := range evs {
				sum += cur.Map(r, evs[i].Time)
			}
			mapSink = sum
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	m["interp.map_ns_per_event"] = perEvent(mapped.wall)

	// P2: the merge, as the cheapest walk that needs one.
	p2, err := p.probe("P2 stream.Census", func(int, int) (time.Duration, error) {
		_, _, err := stream.Census(src, stream.Options{})
		return 0, err
	})
	if err != nil {
		return nil, err
	}
	m["stream.merge_s"] = metric{p2.wall - p1.wall, "s"}
	m["stream.merge_cpu_s"] = metric{p2.cpu - p1.cpu, "s"}

	// P3..P5: the correcting pipeline without CLC, with CLC, with output.
	out := h.outs[0]
	var last *stream.Result
	pipeline := func(name string, pl stream.Pipeline, dst io.Writer) (stat, error) {
		return p.probe(name, func(int, int) (time.Duration, error) {
			out.Reset()
			res, err := pl.Run(src, dst, in.init, in.fin)
			last = res
			return 0, err
		})
	}
	p3, err := pipeline("P3 stream.Pipeline.Run interp", stream.Pipeline{Base: core.BaseInterp}, nil)
	if err != nil {
		return nil, err
	}
	p4, err := pipeline("P4 stream.Pipeline.Run interp+clc", jobPipeline, nil)
	if err != nil {
		return nil, err
	}
	var sink io.Writer = out
	if w.census {
		sink = io.Discard // no reference output to size a buffer from
	}
	p5, err := pipeline("P5 stream.Pipeline.Run interp+clc+out", jobPipeline, sink)
	if err != nil {
		return nil, err
	}
	for name, st := range map[string]stat{"P0": p0, "P1": p1, "P2": p2, "P3": p3, "P4": p4, "P5": p5} {
		p.res.Extra["probe."+name+"_s"] = metric{st.wall, "s"}
	}
	m["clc.stage_s"] = metric{p4.wall - p3.wall, "s"}
	m["clc.stage_cpu_s"] = metric{p4.cpu - p3.cpu, "s"}
	m["stream.assemble_s"] = metric{p5.wall - p4.wall, "s"}
	counts := last.CLCReport
	m["clc.violations_before"] = metric{float64(counts.ViolationsBefore), "count"}
	m["clc.violations_after"] = metric{float64(counts.ViolationsAfter), "count"}
	m["clc.events_moved"] = metric{float64(counts.EventsMoved), "count"}
	m["clc.max_advance_s"] = metric{counts.MaxAdvance, "s"}
	m["stream.max_pending"] = metric{float64(last.Stats.MaxPending), "count"}
	m["stream.spilled_events"] = metric{float64(last.Stats.SpilledEvents), "count"}
	if !w.census {
		p.checkedJob(w.check(in, h.ref, &jobResult{out: out.Bytes(), report: counts, stats: last.Stats}))
		p.res.Extra["core.pipeline_s"] = metric{h.speed.factor() * referenceS, "s"}
	}

	// The workload's own library job, plain and then with every seam
	// decorated. For serve this is the pipeline the server runs.
	plain, err := p.probe("job", func(int, int) (time.Duration, error) {
		r, err := w.runDirect(in, out)
		if err == nil {
			p.checkedJob(w.check(in, h.ref, r))
		}
		return 0, err
	})
	if err != nil {
		return nil, err
	}
	spillDir, err := os.MkdirTemp("", "spill-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(spillDir)
	var s seams // of the last repetition; the counts are the same in each
	decorated, err := p.probe("job decorated", func(parent, job int) (time.Duration, error) {
		s = seams{
			in:    &countingReaderAt{r: bytes.NewReader(in.data)},
			out:   &countingWriter{w: out},
			spill: &spillFS{dir: spillDir, tr: tr, parent: parent, job: job},
		}
		r, err := w.runDecorated(in, out, s)
		if err == nil {
			p.checkedJob(w.check(in, h.ref, r))
		}
		return 0, err
	})
	if err != nil {
		return nil, err
	}
	m["stream.input_passes"] = metric{float64(s.in.bytes.Load()) / float64(len(in.data)), "ratio"}
	m["stream.input_readat_calls"] = metric{float64(s.in.calls.Load()), "count"}
	m["stream.spill_write_bytes"] = metric{float64(s.spill.written.Load()), "bytes"}
	m["stream.spill_read_bytes"] = metric{float64(s.spill.read.Load()), "bytes"}
	m["stream.spill_files"] = metric{float64(s.spill.files.Load()), "count"}
	m["stream.spill_io_s"] = metric{decorated.factor * time.Duration(s.spill.busyNs.Load()).Seconds(), "s"}
	m["stream.out_bytes"] = metric{float64(s.out.bytes), "bytes"}
	m["stream.out_write_calls"] = metric{float64(s.out.calls), "count"}
	m["stream.out_write_s"] = metric{decorated.factor * s.out.busy.Seconds(), "s"}
	overhead := decorated.wall / plain.wall

	if h.svc != nil {
		if overhead, err = p.service(); err != nil {
			return nil, err
		}
	}
	m["layers.trace_overhead_ratio"] = metric{overhead, "ratio"}

	if err := h.close(); err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	if err := tr.write(spansPath); err != nil {
		return nil, err
	}
	p.res.Correct = p.res.Failed == 0
	e.Events, e.Clients, e.Warmups = in.events, h.clients, cfg.setups
	e.KernelMs = median(p.kernelMs)
	p.res.Env = e
	return p.res, nil
}

// seams are the decorators of one decorated job.
type seams struct {
	in    *countingReaderAt
	out   *countingWriter
	spill *spillFS
}

// runDecorated is runDirect with the input, output and spill seams
// decorated and a span around each call into the engine.
func (w workload) runDecorated(in *input, out *bytes.Buffer, s seams) (*jobResult, error) {
	tr, parent, job := s.spill.tr, s.spill.parent, s.spill.job
	id := tr.begin("stream.NewSource", parent, job)
	src, err := stream.NewSource(s.in)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if w.census {
		id = tr.begin("stream.Census", parent, job)
		c, stats, err := stream.Census(src, stream.Options{SpillFS: s.spill})
		tr.end(id)
		if err != nil {
			return nil, err
		}
		return &jobResult{census: c, stats: stats}, nil
	}
	out.Reset()
	pl := jobPipeline
	pl.Options.SpillFS = s.spill
	id = tr.begin("stream.Pipeline.Run", parent, job)
	res, err := pl.Run(src, s.out, in.init, in.fin)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	return &jobResult{out: out.Bytes(), report: res.CLCReport, stats: res.Stats}, nil
}

// wirePhases is one session as phaseConn saw it.
type wirePhases struct {
	upload, wait, download time.Duration
	up, down               int64
}

// service measures the tsyncd layer on serve: plain sessions, sessions
// behind a phase-splitting conn, and the same pipeline run directly by
// as many goroutines as there are clients. It returns the tracing
// overhead of the wrapped sessions.
func (p *prober) service() (overhead float64, err error) {
	h, x := p.h, p.res.Extra
	var retries atomic.Int64
	// loop runs the closed loop for one probe budget, at least three
	// rounds, with the speed kernel sampled between rounds as in the timed
	// phase, and counts every job toward the verdict.
	loop := func(job func(c int) (*jobResult, error)) (walls []float64, phase, factor float64, err error) {
		speed := speedometer{scale: h.speed.scale}
		rounds := h.closedLoop(3, p.budget, &speed, job)
		p.kernelMs = append(p.kernelMs, speed.ms...)
		factor = speed.factor()
		for _, r := range rounds {
			phase += factor * r.wall.Seconds()
			for _, s := range r.jobs {
				p.checkedJob(s.err)
				if s.err != nil {
					err = s.err
				}
				walls = append(walls, factor*s.wall.Seconds())
			}
		}
		return walls, phase, factor, err
	}
	perClient := make([][]wirePhases, h.clients)
	session := func(wrap bool) func(c int) (*jobResult, error) {
		return func(c int) (*jobResult, error) {
			cfg := tsyncd.ClientConfig{Addr: h.svc.addr, Seed: uint64(c)}
			var pc *phaseConn
			if wrap {
				cfg.Dial = func(ctx context.Context) (net.Conn, error) {
					t0 := time.Now()
					var d net.Dialer
					conn, err := d.DialContext(ctx, "tcp", h.svc.addr)
					if err != nil {
						return nil, err
					}
					pc = &phaseConn{Conn: conn, dialed: t0}
					return pc, nil
				}
				cfg.Sleep = func(ctx context.Context, d time.Duration) error {
					retries.Add(1)
					return backoff.Sleep(ctx, d)
				}
			}
			r, err := runSession(tsyncd.NewClient(cfg), h.in, h.outs[c])
			end := time.Now()
			if err == nil && pc != nil {
				job := p.tr.newJob()
				root := p.tr.record("session", -1, job, pc.dialed, end)
				p.tr.record("tsyncd.upload", root, job, pc.dialed, pc.lastWrite)
				p.tr.record("tsyncd.wait", root, job, pc.lastWrite, pc.firstReply)
				p.tr.record("tsyncd.download", root, job, pc.firstReply, end)
				perClient[c] = append(perClient[c], wirePhases{ //tsync:locked — slot c is written by client c's goroutine alone, and a round returns only after every client has finished
					pc.lastWrite.Sub(pc.dialed), pc.firstReply.Sub(pc.lastWrite), end.Sub(pc.firstReply), pc.up, pc.down,
				})
			}
			return r, err
		}
	}

	plain, phase, _, err := loop(session(false))
	if err != nil {
		return 0, err
	}
	wrapped, _, wf, err := loop(session(true))
	if err != nil {
		return 0, err
	}
	engine, _, _, err := loop(func(c int) (*jobResult, error) { return h.w.runDirect(h.in, h.outs[c]) })
	if err != nil {
		return 0, err
	}

	var upload, wait, download, up, down []float64
	for _, phases := range perClient {
		for _, ph := range phases {
			upload = append(upload, wf*ph.upload.Seconds())
			wait = append(wait, wf*ph.wait.Seconds())
			download = append(download, wf*ph.download.Seconds())
			up, down = append(up, float64(ph.up)), append(down, float64(ph.down))
		}
	}
	x["tsyncd.upload_s_p50"] = metric{median(upload), "s"}
	x["tsyncd.wait_s_p50"] = metric{median(wait), "s"}
	x["tsyncd.download_s_p50"] = metric{median(download), "s"}
	x["tsyncd.wire_bytes_up"] = metric{median(up), "bytes"}
	x["tsyncd.wire_bytes_down"] = metric{median(down), "bytes"}
	x["tsyncd.engine_concurrent_s_p50"] = metric{median(engine), "s"}
	x["tsyncd.overhead_ratio"] = metric{median(plain) / median(engine), "ratio"}
	x["tsyncd.sessions_per_s"] = metric{float64(len(plain)) / phase, "1/s"}
	x["tsyncd.retries"] = metric{float64(retries.Load()), "count"}
	return median(wrapped) / median(plain), nil
}
