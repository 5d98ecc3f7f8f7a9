// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (see DESIGN.md §4 for the index), plus ablations of the
// design choices DESIGN.md calls out. Each benchmark regenerates its
// artifact through the same experiment drivers the cmd/ binaries use and
// reports the paper-relevant quantity as a custom metric, so
//
//	go test -bench=. -benchmem
//
// reproduces the entire evaluation. Absolute runtimes measure the
// simulator, not the original testbeds; the custom metrics carry the
// reproduced results (deviations in µs, violation percentages).
package tsync

import (
	"bytes"
	"io"
	"sort"
	"testing"

	"tsync/internal/analysis"
	"tsync/internal/apps"
	"tsync/internal/clc"
	"tsync/internal/clock"
	"tsync/internal/core"
	"tsync/internal/errest"
	"tsync/internal/experiments"
	"tsync/internal/interp"
	"tsync/internal/measure"
	"tsync/internal/mpi"
	"tsync/internal/render"
	"tsync/internal/stream"
	"tsync/internal/topology"
	"tsync/internal/trace"
	"tsync/internal/xrand"
)

// BenchmarkTable1Pinning regenerates the Table I process placements.
func BenchmarkTable1Pinning(b *testing.B) {
	m := topology.Xeon()
	for i := 0; i < b.N; i++ {
		if _, err := topology.InterNode(m, 4); err != nil {
			b.Fatal(err)
		}
		if _, err := topology.InterChip(m, 2); err != nil {
			b.Fatal(err)
		}
		if _, err := topology.InterCore(m, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2Latencies regenerates the Table II latency measurements
// on the Xeon cluster and reports the inter-node mean in µs (paper: 4.29).
func BenchmarkTable2Latencies(b *testing.B) {
	var internode float64
	for i := 0; i < b.N; i++ {
		rows, err := experiments.LatencyStudy(topology.Xeon(), clock.TSC, 500, 7)
		if err != nil {
			b.Fatal(err)
		}
		internode = rows[0].Result.Mean
	}
	b.ReportMetric(internode*1e6, "internode_µs")
}

// BenchmarkFig3Timeline regenerates the Fig. 3 time-line of a violated
// OpenMP barrier.
func BenchmarkFig3Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.OMPStudy(experiments.OMPStudyConfig{
			Machine: topology.Itanium(), Timer: clock.TSC,
			Threads: 4, Regions: 50, Reps: 1, Seed: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		reg, inst, ok := render.FirstViolatedRegion(res.Trace)
		if !ok {
			b.Fatal("no violated region at 4 threads")
		}
		if _, err := render.POMPTimeline(res.Trace, reg, inst, 100); err != nil {
			b.Fatal(err)
		}
	}
}

// clockStudyBench runs one deviation panel and reports the maximum
// deviation in µs.
func clockStudyBench(b *testing.B, cfg experiments.ClockStudyConfig) {
	b.Helper()
	var max float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.ClockStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		max = res.Series.MaxAbsDeviation()
	}
	b.ReportMetric(max*1e6, "maxdev_µs")
}

// BenchmarkFig4aMPIWtime: MPI_Wtime deviations, 300 s, alignment only.
func BenchmarkFig4aMPIWtime(b *testing.B) {
	cfg, err := experiments.Fig4Config("a", 42)
	if err != nil {
		b.Fatal(err)
	}
	clockStudyBench(b, cfg)
}

// BenchmarkFig4bGettimeofday: gettimeofday deviations, 1800 s.
func BenchmarkFig4bGettimeofday(b *testing.B) {
	cfg, err := experiments.Fig4Config("b", 42)
	if err != nil {
		b.Fatal(err)
	}
	clockStudyBench(b, cfg)
}

// BenchmarkFig4cTSC: TSC deviations, 3600 s, alignment only.
func BenchmarkFig4cTSC(b *testing.B) {
	cfg, err := experiments.Fig4Config("c", 42)
	if err != nil {
		b.Fatal(err)
	}
	clockStudyBench(b, cfg)
}

// BenchmarkFig5aXeonTSC: Xeon TSC after interpolation, 3600 s.
func BenchmarkFig5aXeonTSC(b *testing.B) {
	cfg, err := experiments.Fig5Config("a", 42)
	if err != nil {
		b.Fatal(err)
	}
	clockStudyBench(b, cfg)
}

// BenchmarkFig5bPowerPCTB: PowerPC TB after interpolation, 3600 s.
func BenchmarkFig5bPowerPCTB(b *testing.B) {
	cfg, err := experiments.Fig5Config("b", 42)
	if err != nil {
		b.Fatal(err)
	}
	clockStudyBench(b, cfg)
}

// BenchmarkFig5cOpteronGTOD: Opteron gettimeofday after interpolation.
func BenchmarkFig5cOpteronGTOD(b *testing.B) {
	cfg, err := experiments.Fig5Config("c", 42)
	if err != nil {
		b.Fatal(err)
	}
	clockStudyBench(b, cfg)
}

// BenchmarkFig6ShortRun: Xeon TSC after interpolation over 300 s; the
// deviations slightly exceed the half-latency bound.
func BenchmarkFig6ShortRun(b *testing.B) {
	clockStudyBench(b, experiments.Fig6Config(1))
}

// appBench runs the Fig. 7 census (one repetition, reduced scale keeps a
// benchmark iteration around a second) and reports the reversed-message
// percentage.
func appBench(b *testing.B, app experiments.AppKind) {
	b.Helper()
	var pct float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.AppViolations(experiments.AppViolationsConfig{
			App: app, Machine: topology.Xeon(), Timer: clock.TSC,
			Ranks: 32, Reps: 1, Seed: 11, Scale: 0.5,
		})
		if err != nil {
			b.Fatal(err)
		}
		pct = res.PctReversed
	}
	b.ReportMetric(pct, "%reversed")
}

// BenchmarkFig7POP: reversed messages in the POP-like trace.
func BenchmarkFig7POP(b *testing.B) { appBench(b, experiments.AppPOP) }

// BenchmarkFig7SMG: reversed messages in the SMG2000-like trace.
func BenchmarkFig7SMG(b *testing.B) { appBench(b, experiments.AppSMG) }

// BenchmarkFig8OMPRegions: POMP violations across thread counts; reports
// the 4-thread any-violation percentage (paper: 83 %).
func BenchmarkFig8OMPRegions(b *testing.B) {
	var pct4 float64
	for i := 0; i < b.N; i++ {
		for _, threads := range []int{4, 8, 12, 16} {
			res, err := experiments.OMPStudy(experiments.OMPStudyConfig{
				Machine: topology.Itanium(), Timer: clock.TSC,
				Threads: threads, Regions: 100, Reps: 3, Seed: 2,
			})
			if err != nil {
				b.Fatal(err)
			}
			if threads == 4 {
				pct4 = res.PctAny
			}
		}
	}
	b.ReportMetric(pct4, "%violated@4")
}

// BenchmarkIntraNodeNoise: deviations between co-located Xeon clocks
// (§IV end); reports the maximum in µs (paper: ~0.1).
func BenchmarkIntraNodeNoise(b *testing.B) {
	m := topology.Xeon()
	pin, err := topology.InterChip(m, 2)
	if err != nil {
		b.Fatal(err)
	}
	var max float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.ClockStudy(experiments.ClockStudyConfig{
			Machine: m, Timer: clock.TSC, Procs: 2, Pinning: pin,
			Duration: 300, Interval: 1, Correction: experiments.CorrectAlign,
			Seed: uint64(i) + 2, Measured: true,
		})
		if err != nil {
			b.Fatal(err)
		}
		max = res.Series.MaxAbsDeviation()
	}
	b.ReportMetric(max*1e6, "maxdev_µs")
}

// benchTrace builds one raw POP-like measurement reused by the correction
// benchmarks.
func benchTrace(b *testing.B) (*trace.Trace, []measure.Offset, []measure.Offset) {
	b.Helper()
	m := topology.Xeon()
	pin, err := topology.Scheduled(m, 16, xrand.NewSource(9))
	if err != nil {
		b.Fatal(err)
	}
	w, err := mpi.NewWorld(mpi.Config{Machine: m, Timer: clock.TSC, Pinning: pin, Seed: 9})
	if err != nil {
		b.Fatal(err)
	}
	cfg := apps.POPConfig{
		Px: 4, Py: 4, Iterations: 120, TraceStart: 40, TraceEnd: 80,
		StepTime: 1.0, Imbalance: 0.05, HaloBytes: 4096, AllreduceEvery: 1, Seed: 9,
	}
	body := apps.POP(cfg)
	var init, fin []measure.Offset
	var inner error
	if err := w.Run(func(r *mpi.Rank) {
		i1, err := measure.Offsets(r, 20)
		if err != nil {
			inner = err
			return
		}
		body(r)
		f1, err := measure.Offsets(r, 20)
		if err != nil {
			inner = err
			return
		}
		if r.Rank() == 0 {
			init, fin = i1, f1
		}
	}); err != nil {
		b.Fatal(err)
	}
	if inner != nil {
		b.Fatal(inner)
	}
	return w.Trace(), init, fin
}

// BenchmarkCLCCorrection: the recommended interp+CLC pipeline (Section V);
// reports violations removed per run.
func BenchmarkCLCCorrection(b *testing.B) {
	raw, init, fin := benchTrace(b)
	b.ResetTimer()
	var removed int
	for i := 0; i < b.N; i++ {
		res, err := core.Recommended().Run(raw, init, fin)
		if err != nil {
			b.Fatal(err)
		}
		removed = res.CLCReport.ViolationsBefore - res.CLCReport.ViolationsAfter
	}
	b.ReportMetric(float64(removed), "violations_removed")
}

// BenchmarkErrEstBaselines: the three Section V error-estimation methods.
func BenchmarkErrEstBaselines(b *testing.B) {
	raw, _, _ := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, m := range []errest.Method{errest.Regression, errest.ConvexHull, errest.MinMax} {
			if _, err := errest.Estimate(raw, m); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkAblationCLCSequential: sequential vs the default parallel
// replay (compare with BenchmarkCLCCorrection).
func BenchmarkAblationCLCSequential(b *testing.B) {
	raw, init, fin := benchTrace(b)
	corr, err := interp.Linear(init, fin)
	if err != nil {
		b.Fatal(err)
	}
	pre := corr.Apply(raw)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := clc.Correct(pre, clc.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationNoBackwardAmortization: CLC without backward
// amortization — faster but with abrupt jumps before corrected receives;
// reports the mean interval distortion in µs for comparison.
func BenchmarkAblationNoBackwardAmortization(b *testing.B) {
	raw, init, fin := benchTrace(b)
	corr, err := interp.Linear(init, fin)
	if err != nil {
		b.Fatal(err)
	}
	pre := corr.Apply(raw)
	opts := clc.DefaultOptions()
	opts.BackwardWindow = 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := clc.Correct(pre, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationPiecewiseInterp: the Doleschal-style piecewise
// interpolation extension over three offset measurements.
func BenchmarkAblationPiecewiseInterp(b *testing.B) {
	_, init, fin := benchTrace(b)
	// synthesize a mid-run measurement halfway between the endpoints
	mid := make([]measure.Offset, len(init))
	for i := range mid {
		mid[i] = measure.Offset{
			Rank:       i,
			WorkerTime: (init[i].WorkerTime + fin[i].WorkerTime) / 2,
			Offset:     (init[i].Offset + fin[i].Offset) / 2,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := interp.Piecewise(init, mid, fin); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGlobalClockBaseline: the Blue Gene-style globally accessible
// hardware clock (Section II) — tracing with it needs no correction at
// all; reports the violations in its raw trace (expected: 0).
func BenchmarkGlobalClockBaseline(b *testing.B) {
	m := topology.Xeon()
	pin, err := topology.InterNode(m, 8)
	if err != nil {
		b.Fatal(err)
	}
	var violations int
	for i := 0; i < b.N; i++ {
		w, err := mpi.NewWorld(mpi.Config{Machine: m, Timer: clock.GlobalHW, Pinning: pin, Seed: uint64(i), Tracing: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Run(func(r *mpi.Rank) {
			n := r.Size()
			for k := 0; k < 50; k++ {
				r.Send((r.Rank()+1)%n, k, 64, nil)
				r.Recv((r.Rank()-1+n)%n, k)
				r.Compute(10)
			}
		}); err != nil {
			b.Fatal(err)
		}
		v, err := clc.Violations(w.Trace(), 1.0)
		if err != nil {
			b.Fatal(err)
		}
		violations = v
	}
	b.ReportMetric(float64(violations), "violations")
}

// BenchmarkWaitStateImpact: the Section III "false conclusions" extension —
// how far the Late Sender analysis is off before and after correction;
// reports the post-correction relative error in percent.
func BenchmarkWaitStateImpact(b *testing.B) {
	raw, init, fin := benchTrace(b)
	b.ResetTimer()
	var errPct float64
	for i := 0; i < b.N; i++ {
		impact, err := experiments.WaitStateStudy(raw, init, fin)
		if err != nil {
			b.Fatal(err)
		}
		errPct = impact.CorrectedErrPct
	}
	b.ReportMetric(errPct, "%wait_err_after_clc")
}

// BenchmarkAblationPiecewiseStudy: piecewise interpolation with mid-run
// measurements vs. the two-point Eq. 3 line, on the NTP-disciplined system
// clock; reports the piecewise residual in µs.
func BenchmarkAblationPiecewiseStudy(b *testing.B) {
	cfg := experiments.ClockStudyConfig{
		Machine: topology.Xeon(), Timer: clock.Gettimeofday,
		Procs: 3, Duration: 1200, Interval: 10, Seed: 8,
		Correction: experiments.CorrectPiecewise, MidMeasurements: 7,
	}
	var max float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.ClockStudy(cfg)
		if err != nil {
			b.Fatal(err)
		}
		max = res.Series.MaxAbsDeviation()
	}
	b.ReportMetric(max*1e6, "maxdev_µs")
}

// BenchmarkSharedMemoryCLCExtension: the POMP-aware CLC closing the
// paper's stated limitation; reports remaining violated regions (expected
// 0).
func BenchmarkSharedMemoryCLCExtension(b *testing.B) {
	res, err := experiments.OMPStudy(experiments.OMPStudyConfig{
		Machine: topology.Itanium(), Timer: clock.TSC,
		Threads: 4, Regions: 100, Reps: 1, Seed: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	opts := clc.DefaultOptions()
	opts.SharedMemory = true
	b.ResetTimer()
	var remaining int
	for i := 0; i < b.N; i++ {
		corrected, _, err := clc.Correct(res.Trace, opts)
		if err != nil {
			b.Fatal(err)
		}
		census, err := analysis.POMPCensusOf(corrected)
		if err != nil {
			b.Fatal(err)
		}
		remaining = census.Any
	}
	b.ReportMetric(float64(remaining), "violated_regions")
}

// BenchmarkAblationWindowedErrest: windowed vs single-line error
// estimation (extension of the Section V baselines).
func BenchmarkAblationWindowedErrest(b *testing.B) {
	raw, _, _ := benchTrace(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := errest.EstimateWindowed(raw, errest.Regression, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationDomainCLC: the synchronized-clock-domain extension on a
// two-node trace, domains grouping ranks per node.
func BenchmarkAblationDomainCLC(b *testing.B) {
	raw, init, fin := benchTrace(b)
	corr, err := interp.Linear(init, fin)
	if err != nil {
		b.Fatal(err)
	}
	pre := corr.Apply(raw)
	// group ranks by node, domains in ascending node order so the
	// benchmark corrects an identical input every run
	byNode := map[int][]int{}
	var nodes []int
	for rank, p := range pre.Procs {
		if _, ok := byNode[p.Core.Node]; !ok {
			nodes = append(nodes, p.Core.Node)
		}
		byNode[p.Core.Node] = append(byNode[p.Core.Node], rank)
	}
	sort.Ints(nodes)
	opts := clc.DefaultOptions()
	for _, node := range nodes {
		opts.Domains = append(opts.Domains, byNode[node])
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := clc.Correct(pre, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamPipeline: the full streaming correction engine
// (interp + CLC + amortization + encode) over a synthetic binary trace,
// the hot path benchmark/cmd/tsyncbench measures at scale; reports
// corrected events per second.
func BenchmarkStreamPipeline(b *testing.B) {
	var buf bytes.Buffer
	init, fin, err := stream.Synth(stream.SynthSpec{Ranks: 4, Steps: 2000, CollEvery: 10, Seed: 7}, &buf)
	if err != nil {
		b.Fatal(err)
	}
	src, err := stream.NewSource(bytes.NewReader(buf.Bytes()))
	if err != nil {
		b.Fatal(err)
	}
	p := stream.Pipeline{Base: core.BaseInterp, CLC: true}
	b.SetBytes(int64(buf.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	for i := 0; i < b.N; i++ {
		res, err := p.Run(src, io.Discard, init, fin)
		if err != nil {
			b.Fatal(err)
		}
		events = res.Stats.Events
	}
	b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
}

// mergeBenchTrace writes a v2 columnar trace of ranks×perRank local
// events whose oracle-time interleaving follows at(r, i) — each rank's
// stream stays sorted, but the global interleaving is whatever the
// pattern dictates.
func mergeBenchTrace(b *testing.B, ranks, perRank int, at func(r, i int) float64) []byte {
	b.Helper()
	var buf bytes.Buffer
	ew, err := trace.NewEventWriterOpts(&buf, trace.Header{
		Machine: "merge-bench", Timer: "oracle", Regions: []string{"r"}, ProcCount: ranks,
	}, trace.WriterOptions{Version: trace.Version2, Columnar: true})
	if err != nil {
		b.Fatal(err)
	}
	kinds := [2]trace.Kind{trace.Enter, trace.Exit}
	for r := 0; r < ranks; r++ {
		if err := ew.BeginProc(trace.ProcHeader{Rank: r, EventCount: perRank}); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < perRank; i++ {
			t := at(r, i)
			ev := trace.Event{Kind: kinds[i%2], True: t}
			ev.SetTime(t)
			if err := ew.Write(&ev); err != nil {
				b.Fatal(err)
			}
		}
	}
	if err := ew.Close(); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkMergeTree isolates the deterministic merge (census walk, no
// correction stages) under the interleavings that stress a k-way merge
// hardest, at flat (Shards=1) and two-level (Shards=8) fan-in — compare
// with BenchmarkStreamPipeline for the full-pipeline cost. "hot" pins
// the min on one rank (one sub-merge is always the root's answer),
// "roundrobin" changes the winning rank on every pop (maximum heap
// churn), and "clustered" drains one contiguous shard at a time (the
// other sub-merges sit idle on primed heads).
func BenchmarkMergeTree(b *testing.B) {
	const ranks, perRank = 64, 512
	patterns := []struct {
		name string
		at   func(r, i int) float64
	}{
		// rank 0 owns the dense foreground; the rest tick far apart
		{"hot", func(r, i int) float64 {
			if r == 0 {
				return float64(i) * 1e-6
			}
			return float64(i)*1e-3 + float64(r)*1e-8
		}},
		// global pop order cycles through all ranks every ranks events
		{"roundrobin", func(r, i int) float64 {
			return float64(i*ranks+r) * 1e-6
		}},
		// ranks are active in contiguous blocks of 8, one block at a time
		{"clustered", func(r, i int) float64 {
			return float64(r/8)*1e0 + float64(i)*1e-6 + float64(r%8)*1e-8
		}},
	}
	for _, pat := range patterns {
		data := mergeBenchTrace(b, ranks, perRank, pat.at)
		src, err := stream.NewSource(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		for _, shards := range []int{1, 8} {
			name := pat.name + "/flat"
			if shards > 1 {
				name = pat.name + "/tree8"
			}
			b.Run(name, func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				var events int64
				for i := 0; i < b.N; i++ {
					_, stats, err := stream.Census(src, stream.Options{Shards: shards})
					if err != nil {
						b.Fatal(err)
					}
					events = stats.Events
				}
				b.ReportMetric(float64(events)*float64(b.N)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}

// BenchmarkEventCodec: decode+re-encode round trip of the binary event
// format through the batched public codec, the inner loop of every
// streaming pass.
func BenchmarkEventCodec(b *testing.B) {
	const n = 4096
	evs := make([]trace.Event, n)
	for i := range evs {
		evs[i] = trace.Event{
			Kind: trace.Kind(i % 6), Op: trace.CollOp(i % 4),
			Time: float64(i) * 1e-3, True: float64(i) * 1e-3,
			Region: int32(i % 4), Instance: int32(i / 64),
			Partner: int32(i % 8), Tag: int32(i % 100), Bytes: 1 << 10,
		}
	}
	// a v1 process section is its events' bare encodings: everything the
	// writer emits after the process header
	newWriter := func(w io.Writer, count int) *trace.EventWriter {
		ew, err := trace.NewEventWriter(w, trace.Header{ProcCount: 1})
		if err == nil {
			err = ew.BeginProc(trace.ProcHeader{EventCount: count})
		}
		if err != nil {
			b.Fatal(err)
		}
		return ew
	}
	var file bytes.Buffer
	ew := newWriter(&file, n)
	start := ew.Offset()
	for i := range evs {
		if err := ew.Write(&evs[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := ew.Close(); err != nil {
		b.Fatal(err)
	}
	raw := file.Bytes()[start:]
	rd := bytes.NewReader(raw)
	sink := newWriter(io.Discard, n*b.N)
	out := make([]trace.Event, n)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := rd.Seek(0, io.SeekStart); err != nil {
			b.Fatal(err)
		}
		dec := trace.NewEventDecoder(rd)
		got, err := dec.DecodeBatch(out)
		if err != nil && err != io.EOF {
			b.Fatal(err)
		}
		if got != n {
			b.Fatalf("decoded %d of %d events", got, n)
		}
		for j := 0; j < got; j++ {
			if err := sink.Write(&out[j]); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkMapTimeMonotone: the amortized-O(1) monotone cursor over a
// many-piece interpolation, the per-event time mapping of the streaming
// engine (compare with the binary-search Correction.Map it replaces).
func BenchmarkMapTimeMonotone(b *testing.B) {
	const ranks, points = 4, 65
	tables := make([][]measure.Offset, points)
	for k := range tables {
		t := float64(k) * 10
		tab := make([]measure.Offset, ranks)
		for r := range tab {
			tab[r] = measure.Offset{
				Rank:       r,
				WorkerTime: t * (1 + 1e-5*float64(r)),
				Offset:     1e-4*float64(r) + 1e-6*t*float64(r%3),
			}
		}
		tables[k] = tab
	}
	corr, err := interp.Piecewise(tables...)
	if err != nil {
		b.Fatal(err)
	}
	cur := corr.NewCursor()
	const steps = 4096
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < ranks; r++ {
			for s := 0; s < steps; s++ {
				cur.Map(r, float64(s)*(points*10.0/steps))
			}
		}
	}
	b.ReportMetric(float64(ranks*steps), "maps/op")
}

// BenchmarkRendezvousTransfer: large-message handshake round trips.
func BenchmarkRendezvousTransfer(b *testing.B) {
	m := topology.Xeon()
	pin, err := topology.InterNode(m, 2)
	if err != nil {
		b.Fatal(err)
	}
	w, err := mpi.NewWorld(mpi.Config{Machine: m, Timer: clock.TSC, Pinning: pin, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	const large = 1 << 20
	b.SetBytes(large)
	err = w.Run(func(r *mpi.Rank) {
		for i := 0; i < b.N; i++ {
			if r.Rank() == 0 {
				r.Send(1, i, large, nil)
			} else {
				r.Recv(0, i)
			}
		}
	})
	if err != nil {
		b.Fatal(err)
	}
}
