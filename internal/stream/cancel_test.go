package stream_test

// Cancellation tests: a canceled context must surface promptly as
// ctx.Err(), release every decode goroutine, and leave no spill temp
// files behind. The trigger is a deterministic read hook, not a timer —
// the tests contain no wall-clock sleeps at all.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"os"
	"runtime"
	"sync"
	"testing"

	"tsync/internal/core"
	"tsync/internal/faultinject"
	"tsync/internal/stream"
	"tsync/internal/trace"
	"tsync/internal/xrand"
)

const cancelSeed = 0xcafe1e7e

// waitGoroutines yields until the goroutine count drops back to base,
// bounded by a generous retry budget instead of a timer.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for i := 0; i < 1_000_000; i++ {
		if runtime.NumGoroutine() <= base {
			return
		}
		runtime.Gosched()
	}
	t.Errorf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), base)
}

// TestCancelPipeline: canceling mid-decode stops the run with
// context.Canceled, releases the decode goroutines, and removes the
// spill directory.
func TestCancelPipeline(t *testing.T) {
	var buf bytes.Buffer
	if _, _, err := stream.Synth(stream.SynthSpec{
		Ranks: 3, Steps: 2000, CollEvery: 4, Seed: xrand.SeedAt(cancelSeed, 0),
	}, &buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	base := runtime.NumGoroutine()

	var cancel context.CancelFunc
	hook := &faultinject.HookReaderAt{
		R:      bytes.NewReader(data),
		Offset: math.MaxInt64, // inert while the index pass scans the file
		Fn:     func() { cancel() },
	}
	src, err := stream.NewSource(hook)
	if err != nil {
		t.Fatal(err)
	}
	// arm the hook: the walk's cursors re-read the event sections, so
	// the first decode to cross the middle of the file cancels the run
	hook.Offset = int64(len(data)) / 2
	var ctx context.Context
	ctx, cancel = context.WithCancel(context.Background())

	var out bytes.Buffer
	_, err = (stream.Pipeline{Base: core.BaseNone, CLC: true}).RunContext(ctx, src, &out, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	cancel()
	waitGoroutines(t, base)
	ents, rerr := os.ReadDir(tmp)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, e := range ents {
		t.Errorf("leftover spill entry after cancellation: %s", e.Name())
	}
}

// TestCancelBeforeStart: an already-canceled context fails every
// streaming entry point without doing any work.
func TestCancelBeforeStart(t *testing.T) {
	path, _, _ := synthFile(t, stream.SynthSpec{
		Ranks: 2, Steps: 20, Seed: xrand.SeedAt(cancelSeed, 1),
	})
	src := openSource(t, path)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := (stream.Pipeline{Base: core.BaseNone}).RunContext(ctx, src, nil, nil, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("RunContext: want context.Canceled, got %v", err)
	}
	if _, _, err := stream.SummarizeContext(ctx, src); !errors.Is(err, context.Canceled) {
		t.Errorf("SummarizeContext: want context.Canceled, got %v", err)
	}
	if _, _, err := stream.CensusContext(ctx, src, stream.Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("CensusContext: want context.Canceled, got %v", err)
	}
	var out bytes.Buffer
	if _, err := stream.LamportScheduleContext(ctx, src, 1e-6, &out, stream.Options{}); !errors.Is(err, context.Canceled) {
		t.Errorf("LamportScheduleContext: want context.Canceled, got %v", err)
	}
}

// cancelWriter cancels a context on its first Write, putting the
// cancellation inside the fused assemble/encode stage.
type cancelWriter struct {
	out  bytes.Buffer
	fn   func()
	once sync.Once
}

func (w *cancelWriter) Write(p []byte) (int, error) {
	w.once.Do(w.fn)
	return w.out.Write(p)
}

// cancelFS cancels a context on its first Open, putting the
// cancellation where the final sweep starts reading the spilled times.
type cancelFS struct {
	*faultinject.FS
	fn   func()
	once *sync.Once
}

func (c cancelFS) Open(name string) (io.ReadCloser, error) {
	c.once.Do(c.fn)
	return c.FS.Open(name)
}

// TestCancelAssemble: cancellation that first lands during the final
// sweep — after the analysis walk already finished — still aborts with
// ctx.Err(), whether the encode side or the spill-read side trips it.
func TestCancelAssemble(t *testing.T) {
	path, _, _ := synthFile(t, stream.SynthSpec{
		Ranks: 3, Steps: 3000, Seed: xrand.SeedAt(cancelSeed, 2),
	})
	src := openSource(t, path)

	// the encode stage's first header write cancels; the next slab
	// boundary notices
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	w := &cancelWriter{fn: cancel}
	_, err := (stream.Pipeline{Base: core.BaseNone}).RunContext(ctx, src, w, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("writer: want context.Canceled, got %v", err)
	}
	cancel()
	waitGoroutines(t, base)

	// the sweep's first spill-file Open cancels, under CLC so that there
	// is a spill to read; the next slab boundary notices
	base = runtime.NumGoroutine()
	ctx, cancel = context.WithCancel(context.Background())
	fs := cancelFS{FS: faultinject.NewFS(-1), fn: cancel, once: &sync.Once{}}
	var out bytes.Buffer
	_, err = (stream.Pipeline{
		Base:    core.BaseNone,
		CLC:     true,
		Options: stream.Options{SpillFS: fs},
	}).RunContext(ctx, src, &out, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("spill read: want context.Canceled, got %v", err)
	}
	cancel()
	waitGoroutines(t, base)
}

// TestCancelSourceIndex: cancelling during the index pass aborts
// NewSourceContext with ctx.Err(), whether the pass decodes events (v1)
// or hops block heads (v2, here with frames small enough that half the
// file is many times ctxCheckEvery blocks); a pre-cancelled context fails
// before scanning any process section.
func TestCancelSourceIndex(t *testing.T) {
	for name, spec := range map[string]stream.SynthSpec{
		"v1-decode": {Ranks: 3, Steps: 4000, CollEvery: 4, Seed: xrand.SeedAt(cancelSeed, 99)},
		"v2-hop":    {Ranks: 3, Steps: 4000, CollEvery: 4, Seed: xrand.SeedAt(cancelSeed, 99), Version: trace.Version2, Columnar: true, FrameEvents: 4},
	} {
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			if _, _, err := stream.Synth(spec, &buf); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()

			var cancel context.CancelFunc
			hook := &faultinject.HookReaderAt{
				R:      bytes.NewReader(data),
				Offset: int64(len(data)) / 2, // the index pass crosses mid-file
				Fn:     func() { cancel() },
			}
			var ctx context.Context
			ctx, cancel = context.WithCancel(context.Background())
			defer cancel()
			if _, err := stream.NewSourceContext(ctx, hook, stream.SourceOptions{}); !errors.Is(err, context.Canceled) {
				t.Fatalf("mid-index cancel: want context.Canceled, got %v", err)
			}

			pre, cancelPre := context.WithCancel(context.Background())
			cancelPre()
			if _, err := stream.NewSourceContext(pre, bytes.NewReader(data), stream.SourceOptions{}); !errors.Is(err, context.Canceled) {
				t.Fatalf("pre-cancelled: want context.Canceled, got %v", err)
			}
		})
	}
}
