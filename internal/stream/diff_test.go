package stream_test

// Differential property tests pinning the streaming pipeline to the
// in-memory one: for randomized synthetic traces, every window, slab and
// shard setting must yield bit-identical output event bytes, experiment
// checksums, censuses, CLC reports, and distortion figures.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"tsync/internal/analysis"
	"tsync/internal/clc"
	"tsync/internal/core"
	"tsync/internal/experiments"
	"tsync/internal/lclock"
	"tsync/internal/measure"
	"tsync/internal/stream"
	"tsync/internal/trace"
	"tsync/internal/xrand"
)

const diffSeed = 0xd1ff5eed

var diffWindows = []int{1, 16, 4096}

// diffProcs is the GOMAXPROCS a case runs under (the k element of its
// name): the decode-ahead, shard-merge and encode stages are goroutines,
// and the output must not depend on how many of them run at once.
var diffProcs = []int{1, 4}

// withProcs sets GOMAXPROCS until the (sub)test ends.
func withProcs(t *testing.T, n int) {
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// diffBatches exercises the slab pipeline at both extremes: one-event
// slabs (maximal stage hand-offs) and the default production size.
var diffBatches = []int{1, 4096}

// diffShards runs every differential case through both merge shapes:
// the flat single-heap merge and a two-level tree. Output must be
// bit-identical — Shards is a wall-time knob, never a semantic one.
var diffShards = []int{1, 4}

// synthFile writes a synthetic trace to a temp file and returns its path
// with the exact offset tables.
func synthFile(t *testing.T, spec stream.SynthSpec) (string, []measure.Offset, []measure.Offset) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "synth.etr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	init, fin, err := stream.Synth(spec, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatalf("Synth: %v", err)
	}
	return path, init, fin
}

func openSource(t *testing.T, path string) *stream.Source {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	src, err := stream.NewSource(f)
	if err != nil {
		t.Fatalf("NewSource: %v", err)
	}
	return src
}

func readTrace(t *testing.T, path string) *trace.Trace {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := trace.Read(f)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	return tr
}

func diffSpecs() []stream.SynthSpec {
	return []stream.SynthSpec{
		{Ranks: 2, Steps: 30, CollEvery: 0, Seed: xrand.SeedAt(diffSeed, 0)},
		{Ranks: 3, Steps: 25, CollEvery: 3, Seed: xrand.SeedAt(diffSeed, 1)},
		{Ranks: 5, Steps: 20, CollEvery: 4, Seed: xrand.SeedAt(diffSeed, 2)},
		// Columnar v2 input: the source decodes through blockColFrame,
		// proving the delta encoding lossless under every pipeline shape.
		{Ranks: 4, Steps: 18, CollEvery: 3, Seed: xrand.SeedAt(diffSeed, 8),
			Version: trace.Version2, FrameEvents: 16, Columnar: true},
		// The paper's case: frequency jumps interpolation cannot follow,
		// so CLC has violations to repair and events to move, and the
		// After census is counted over times that differ from the mapped
		// ones. Keep it last: paperSpec indexes it.
		stream.PaperCaseSpec(xrand.SeedAt(diffSeed, 10)),
	}
}

// paperSpec is the index of the paper's case in diffSpecs.
const paperSpec = 4

func TestDifferentialPipeline(t *testing.T) {
	narrow := clc.DefaultOptions()
	narrow.BackwardWindow = 2e-3
	noBackward := clc.DefaultOptions()
	noBackward.BackwardWindow = 0
	// γ 0.5 lets CLC stop short of Eq. 1, so After.ClockCondition (full
	// l_min) and ViolationsAfter (γ·l_min) are different counts.
	halfGamma := clc.DefaultOptions()
	halfGamma.Gamma = 0.5
	pipes := []struct {
		name string
		base core.Base
		clc  bool
		opts clc.Options
	}{
		{"none", core.BaseNone, false, clc.Options{}},
		{"interp-clc", core.BaseInterp, true, clc.Options{}},
		{"align-clc-narrow", core.BaseAlign, true, narrow},
		{"interp-clc-noback", core.BaseInterp, true, noBackward},
		{"interp-clc-halfgamma", core.BaseInterp, true, halfGamma},
	}
	for si, spec := range diffSpecs() {
		path, init, fin := synthFile(t, spec)
		raw := readTrace(t, path)
		src := openSource(t, path)
		for _, pipe := range pipes {
			mem, err := core.Pipeline{Base: pipe.base, CLC: pipe.clc, CLCOptions: pipe.opts}.Run(raw, init, fin)
			if err != nil {
				t.Fatalf("spec %d %s: in-memory: %v", si, pipe.name, err)
			}
			var memBuf bytes.Buffer
			if _, err := trace.Write(&memBuf, mem.Trace); err != nil {
				t.Fatal(err)
			}
			memSum, err := experiments.ChecksumTrace(mem.Trace)
			if err != nil {
				t.Fatal(err)
			}
			if si == paperSpec && pipe.clc {
				if mem.CLCReport.ViolationsBefore == 0 || mem.CLCReport.EventsMoved == 0 {
					t.Fatalf("spec %d %s: the paper's case leaves CLC nothing to do: %+v", si, pipe.name, mem.CLCReport)
				}
				if pipe.name == "interp-clc-halfgamma" && (mem.After.ClockCondition == 0 || mem.After.ClockCondition == mem.CLCReport.ViolationsAfter) {
					t.Fatalf("spec %d %s: After.ClockCondition %d and ViolationsAfter %d do not tell the two counts apart",
						si, pipe.name, mem.After.ClockCondition, mem.CLCReport.ViolationsAfter)
				}
			}
			for _, window := range diffWindows {
				for _, procs := range diffProcs {
					for _, batch := range diffBatches {
						for _, shards := range diffShards {
							name := fmt.Sprintf("spec%d/%s/w%d/k%d/b%d/s%d", si, pipe.name, window, procs, batch, shards)
							t.Run(name, func(t *testing.T) {
								withProcs(t, procs)
								var out bytes.Buffer
								p := stream.Pipeline{
									Base: pipe.base, CLC: pipe.clc, CLCOptions: pipe.opts,
									Options: stream.Options{Window: window, Batch: batch, Shards: shards},
								}
								res, err := p.Run(src, &out, init, fin)
								if err != nil {
									t.Fatalf("streaming: %v", err)
								}
								if !bytes.Equal(out.Bytes(), memBuf.Bytes()) {
									t.Fatalf("output bytes differ: %d vs %d bytes", out.Len(), memBuf.Len())
								}
								gotSum, err := experiments.ChecksumTraceFile(bytes.NewReader(out.Bytes()))
								if err != nil {
									t.Fatal(err)
								}
								if gotSum != memSum {
									t.Fatalf("trace checksum %s != in-memory %s", gotSum, memSum)
								}
								if !reflect.DeepEqual(res.Before, mem.Before) {
									t.Errorf("Before census differs:\n stream %+v\n memory %+v", res.Before, mem.Before)
								}
								if !reflect.DeepEqual(res.After, mem.After) {
									t.Errorf("After census differs:\n stream %+v\n memory %+v", res.After, mem.After)
								}
								if res.CLCReport != mem.CLCReport {
									t.Errorf("CLC report differs:\n stream %+v\n memory %+v", res.CLCReport, mem.CLCReport)
								}
								if res.Distortion != mem.Distortion {
									t.Errorf("distortion differs:\n stream %+v\n memory %+v", res.Distortion, mem.Distortion)
								}
								if res.Stats.Events != src.Events() {
									t.Errorf("stats counted %d events, source has %d", res.Stats.Events, src.Events())
								}
							})
						}
					}
				}
			}
		}
	}
}

// TestDifferentialIdentity: with no correction at all, the streamed
// output must reproduce the input file byte for byte.
func TestDifferentialIdentity(t *testing.T) {
	path, _, _ := synthFile(t, stream.SynthSpec{Ranks: 3, Steps: 10, CollEvery: 2, Seed: xrand.SeedAt(diffSeed, 7)})
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	src := openSource(t, path)
	var out bytes.Buffer
	if _, err := (stream.Pipeline{Base: core.BaseNone}).Run(src, &out, nil, nil); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Fatalf("identity pipeline rewrote bytes: %d vs %d", out.Len(), len(want))
	}
}

func TestDifferentialCensus(t *testing.T) {
	path, _, _ := synthFile(t, stream.SynthSpec{Ranks: 4, Steps: 15, CollEvery: 3, Seed: xrand.SeedAt(diffSeed, 3)})
	raw := readTrace(t, path)
	want, err := analysis.CensusOf(raw)
	if err != nil {
		t.Fatal(err)
	}
	src := openSource(t, path)
	got, stats, err := stream.Census(src, stream.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("census differs:\n stream %+v\n memory %+v", got, want)
	}
	if stats.Events != src.Events() {
		t.Errorf("stats counted %d events, source has %d", stats.Events, src.Events())
	}
}

func TestDifferentialLamport(t *testing.T) {
	path, _, _ := synthFile(t, stream.SynthSpec{Ranks: 3, Steps: 12, CollEvery: 4, Seed: xrand.SeedAt(diffSeed, 4)})
	raw := readTrace(t, path)
	const delta = 1e-6
	want, err := lclock.LamportSchedule(raw, delta)
	if err != nil {
		t.Fatal(err)
	}
	var wantBuf bytes.Buffer
	if _, err := trace.Write(&wantBuf, want); err != nil {
		t.Fatal(err)
	}
	src := openSource(t, path)
	var out bytes.Buffer
	if _, err := stream.LamportSchedule(src, delta, &out, stream.Options{}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), wantBuf.Bytes()) {
		t.Fatal("Lamport schedule bytes differ")
	}
}

func TestWindowPolicyError(t *testing.T) {
	// a collective holds two pending items per rank, so window 1 under
	// PolicyError must fail fast
	path, _, _ := synthFile(t, stream.SynthSpec{Ranks: 3, Steps: 6, CollEvery: 1, Seed: xrand.SeedAt(diffSeed, 5)})
	src := openSource(t, path)
	_, err := (stream.Pipeline{
		Base:    core.BaseNone,
		Options: stream.Options{Window: 1, Policy: stream.PolicyError},
	}).Run(src, nil, nil, nil)
	if !errors.Is(err, stream.ErrWindowExceeded) {
		t.Fatalf("want ErrWindowExceeded, got %v", err)
	}
	// the same run under PolicySpill completes and records the overflow
	var out bytes.Buffer
	res, err := (stream.Pipeline{
		Base:    core.BaseNone,
		Options: stream.Options{Window: 1, Policy: stream.PolicySpill},
	}).Run(src, &out, nil, nil)
	if err != nil {
		t.Fatalf("PolicySpill: %v", err)
	}
	// 18 collective participations (3 ranks x 6 rounds), each holding its
	// begin and its end: every second insertion lands past the window
	if res.Stats.SpilledEvents != 18 {
		t.Errorf("PolicySpill recorded %d spilled events, want 18", res.Stats.SpilledEvents)
	}
	if res.Stats.MaxPending <= 1 {
		t.Errorf("MaxPending = %d, want > window", res.Stats.MaxPending)
	}
	// With CLC the look-back deque charges the same accounting, in the
	// job's one merge walk: the count covers that walk and nothing else
	// (a second walk used to add its own 18 on top).
	res, err = (stream.Pipeline{
		Base:    core.BaseNone,
		CLC:     true,
		Options: stream.Options{Window: 1, Policy: stream.PolicySpill},
	}).Run(src, nil, nil, nil)
	if err != nil {
		t.Fatalf("PolicySpill with CLC: %v", err)
	}
	if res.Stats.SpilledEvents != 159 || res.Stats.MaxPending != 38 {
		t.Errorf("CLC under window 1: %d spilled events, peak %d pending; want 159 and 38", res.Stats.SpilledEvents, res.Stats.MaxPending)
	}
}

// TestUnendedCollectiveErrorOrder: a rank that finishes with an unended
// begin on two communicators is reported on the lower communicator, run
// after run: the finishing rank re-checks communicators in ascending
// order, not in map order.
func TestUnendedCollectiveErrorOrder(t *testing.T) {
	begin := func(tm float64, comm int32) trace.Event {
		return trace.Event{Kind: trace.CollBegin, Op: trace.OpBarrier, Time: tm, True: tm, Comm: comm, Partner: -1}
	}
	tr := &trace.Trace{Procs: []trace.Proc{
		{Rank: 0, Events: []trace.Event{begin(1, 7), begin(2, 3)}},
		{Rank: 1, Events: []trace.Event{{Kind: trace.Enter, Time: 3, True: 3, Partner: -1}}},
	}}
	var buf bytes.Buffer
	if _, err := trace.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	const want = "rank 0 began collective comm 3 instance 0 but never ended it"
	for run := 0; run < 50; run++ {
		src, err := stream.NewSource(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := stream.Census(src, stream.Options{}); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("run %d: got %v, want %q", run, err, want)
		}
	}
}

func TestStreamingUnsupported(t *testing.T) {
	path, init, fin := synthFile(t, stream.SynthSpec{Ranks: 2, Steps: 4, Seed: xrand.SeedAt(diffSeed, 6)})
	src := openSource(t, path)
	cases := []stream.Pipeline{
		{Base: core.BaseRegression},
		{Base: core.BaseConvexHull},
		{Base: core.BaseMinMax},
		{Base: core.BaseNone, CLC: true, CLCOptions: func() clc.Options {
			o := clc.DefaultOptions()
			o.SharedMemory = true
			return o
		}()},
		{Base: core.BaseNone, CLC: true, CLCOptions: func() clc.Options {
			o := clc.DefaultOptions()
			o.Domains = [][]int{{0, 1}}
			return o
		}()},
	}
	for i, p := range cases {
		if _, err := p.Run(src, nil, init, fin); !errors.Is(err, stream.ErrUnsupported) {
			t.Errorf("case %d: want ErrUnsupported, got %v", i, err)
		}
	}
}

// TestDifferentialShardTree pins the two-level merge tree to the flat
// merge on a rank count large enough for real multi-rank shards: every
// shard count (including degenerate one-rank shards and more shards
// than make sense) must reproduce the flat merge's output bytes and
// checksum exactly, across window and batch extremes.
func TestDifferentialShardTree(t *testing.T) {
	spec := stream.SynthSpec{Ranks: 9, Steps: 40, CollEvery: 5, Seed: xrand.SeedAt(diffSeed, 9)}
	path, init, fin := synthFile(t, spec)
	src := openSource(t, path)

	run := func(opt stream.Options) []byte {
		t.Helper()
		var out bytes.Buffer
		p := stream.Pipeline{Base: core.BaseInterp, CLC: true, Options: opt}
		if _, err := p.Run(src, &out, init, fin); err != nil {
			t.Fatalf("%+v: %v", opt, err)
		}
		return out.Bytes()
	}

	flat := run(stream.Options{Shards: 1})
	for _, shards := range []int{2, 3, 4, 9, 64} {
		for _, window := range diffWindows {
			for _, batch := range diffBatches {
				name := fmt.Sprintf("s%d/w%d/b%d", shards, window, batch)
				t.Run(name, func(t *testing.T) {
					got := run(stream.Options{Shards: shards, Window: window, Batch: batch})
					if !bytes.Equal(got, flat) {
						t.Fatalf("tree merge with %d shards diverges from the flat merge", shards)
					}
				})
			}
		}
	}
}
