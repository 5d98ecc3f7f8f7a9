package stream_test

// Pass-count pins: how many times a job reads its input and its spill
// files is part of the pipeline's contract (DESIGN.md §6), so a lost or
// regained pass fails here and not only in a traced benchmark run.

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"tsync/internal/core"
	"tsync/internal/faultinject"
	"tsync/internal/stream"
	"tsync/internal/trace"
	"tsync/internal/xrand"
)

// countingReaderAt counts the ReadAt calls made and the bytes they
// deliver.
type countingReaderAt struct {
	r        io.ReaderAt
	n, calls atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.r.ReadAt(p, off)
	c.n.Add(int64(n))
	c.calls.Add(1)
	return n, err
}

// countingFS counts the bytes written to and read back from spill files.
type countingFS struct {
	fs            stream.SpillFS
	written, read atomic.Int64
}

type countingWriter struct {
	io.WriteCloser
	n *atomic.Int64
}

func (w countingWriter) Write(p []byte) (int, error) {
	n, err := w.WriteCloser.Write(p)
	w.n.Add(int64(n))
	return n, err
}

type countingReader struct {
	io.ReadCloser
	n *atomic.Int64
}

func (r countingReader) Read(p []byte) (int, error) {
	n, err := r.ReadCloser.Read(p)
	r.n.Add(int64(n))
	return n, err
}

func (c *countingFS) Create(name string) (io.WriteCloser, error) {
	w, err := c.fs.Create(name)
	if err != nil {
		return nil, err
	}
	return countingWriter{w, &c.written}, nil
}

func (c *countingFS) Open(name string) (io.ReadCloser, error) {
	r, err := c.fs.Open(name)
	if err != nil {
		return nil, err
	}
	return countingReader{r, &c.read}, nil
}

func TestInputPasses(t *testing.T) {
	spec := stream.SynthSpec{Ranks: 6, Steps: 120, CollEvery: 4, Seed: xrand.SeedAt(diffSeed, 11)}
	// v1, whose index decodes the file: the rows this test has always had
	testInputPasses(t, spec)
	// v2, whose index hops block heads
	for _, columnar := range []bool{false, true} {
		for _, fe := range []int{64, 256} {
			name := fmt.Sprintf("v2-row/fe%d", fe)
			if columnar {
				name = fmt.Sprintf("v2-columnar/fe%d", fe)
			}
			t.Run(name, func(t *testing.T) {
				v2 := spec
				v2.Version, v2.Columnar, v2.FrameEvents = trace.Version2, columnar, fe
				testInputPasses(t, v2)
			})
		}
	}
}

// headScanBytes is the most the hop index reads of one block: the longest
// block head and the longest rank/count prefix of a frame payload.
const headScanBytes = 39

func testInputPasses(t *testing.T, spec stream.SynthSpec) {
	var buf bytes.Buffer
	init, fin, err := stream.Synth(spec, &buf)
	if err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	clcPipe := stream.Pipeline{Base: core.BaseInterp, CLC: true}

	// Reading the file header costs the same whatever follows it.
	sweep := &countingReaderAt{r: bytes.NewReader(data)}
	er, err := trace.NewEventReader(io.NewSectionReader(sweep, 0, 1<<62))
	if err != nil {
		t.Fatal(err)
	}
	headerBytes, headerCalls := sweep.n.Load(), sweep.calls.Load()

	// The index, NewSource's own header read included. A v1 file is
	// decoded whole. A v2 file is hopped: one bounded read per block and
	// one more for each proc block's payload, frame payloads untouched.
	src, err := stream.NewSource(sweep)
	if err != nil {
		t.Fatal(err)
	}
	indexBytes, indexCalls := sweep.n.Load()-headerBytes, sweep.calls.Load()-headerCalls
	if spec.Version != trace.Version2 {
		if indexBytes != int64(len(data)) {
			t.Fatalf("the index pass read %d of %d bytes", indexBytes, len(data))
		}
	} else {
		var blocks, procs, procBytes int64
		for sc := trace.NewHeadScanner(bytes.NewReader(data), er.Offset()); ; blocks++ {
			b, err := sc.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if !b.Frame {
				procs++
				procBytes += b.End - b.Start
			}
		}
		if got, want := indexCalls-headerCalls, blocks+procs; got != want {
			t.Errorf("the hop made %d reads after the header's, want %d: one for each of %d blocks and one more for each of %d proc payloads", got, want, blocks, procs)
		}
		if got, most := indexBytes-headerBytes, headScanBytes*blocks+procBytes; got > most {
			t.Errorf("the hop read %d bytes after the header's, want at most %d (%d B x %d blocks + %d B of proc blocks)", got, most, headScanBytes, blocks, procBytes)
		}
		if 10*indexBytes > int64(len(data)) {
			t.Errorf("the hop read %d bytes of a %d-byte trace", indexBytes, len(data))
		}
	}

	// Every later pass reads the event sections only. One cursor sweep
	// measures those.
	before := sweep.n.Load()
	var ev trace.Event
	for r := 0; r < src.Ranks(); r++ {
		for cur := src.Cursor(r); cur.Next(&ev) == nil; {
		}
	}
	eventBytes := sweep.n.Load() - before
	if eventBytes <= 0 || eventBytes > int64(len(data)) || 100*eventBytes < 99*int64(len(data)) {
		t.Fatalf("one cursor sweep read %d bytes of a %d-byte trace", eventBytes, len(data))
	}

	cases := []struct {
		name   string
		sweeps int64 // reads of the event sections, after the index
		spill  bool
		run    func(src *stream.Source, opt stream.Options) error
	}{
		{"census", 1, false, func(src *stream.Source, opt stream.Options) error {
			_, _, err := stream.Census(src, opt)
			return err
		}},
		{"clc-analysis", 2, true, func(src *stream.Source, opt stream.Options) error {
			p := clcPipe
			p.Options = opt
			_, err := p.Run(src, nil, init, fin)
			return err
		}},
		{"clc-output", 2, true, func(src *stream.Source, opt stream.Options) error {
			p := clcPipe
			p.Options = opt
			_, err := p.Run(src, io.Discard, init, fin)
			return err
		}},
	}
	// Every configuration: both merge shapes, and slabs that end inside a
	// frame, read the input the same number of times.
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, shards := range []int{0, 4} {
				for _, batch := range []int{0, 3} {
					t.Run(fmt.Sprintf("s%d/b%d", shards, batch), func(t *testing.T) {
						in := &countingReaderAt{r: bytes.NewReader(data)}
						fs := &countingFS{fs: faultinject.NewFS(-1)}
						src, err := stream.NewSource(in)
						if err != nil {
							t.Fatal(err)
						}
						if err := tc.run(src, stream.Options{SpillFS: fs, Shards: shards, Batch: batch}); err != nil {
							t.Fatal(err)
						}
						if got, want := in.n.Load(), indexBytes+tc.sweeps*eventBytes; got != want {
							t.Errorf("read %d input bytes (%.3f x the trace), want %d: the index (%d) and %d sweeps of the events", got, float64(got)/float64(len(data)), want, indexBytes, tc.sweeps)
						}
						written, read := fs.written.Load(), fs.read.Load()
						if tc.spill && written != 8*src.Events() {
							t.Errorf("spilled %d bytes, want one float64 per event (%d)", written, 8*src.Events())
						}
						if !tc.spill && written != 0 {
							t.Errorf("spilled %d bytes in a job with no CLC stage", written)
						}
						if read != written {
							t.Errorf("read %d spill bytes back, wrote %d: each spill file must be read exactly once", read, written)
						}
					})
				}
			}
		})
	}
}
