package stream_test

// Salvage-mode tests: recovery from deterministic corruption must be
// reproducible (same seed, same losses, same output bytes at any worker
// count), bounded (budget errors), and invisible on clean inputs (v2 +
// salvage-on over an intact file is bit-identical to the strict path).

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"reflect"
	"testing"

	"tsync/internal/core"
	"tsync/internal/experiments"
	"tsync/internal/faultinject"
	"tsync/internal/stream"
	"tsync/internal/trace"
	"tsync/internal/xrand"
)

const salvageSeed = 0x5a17a6e5

// synthBytes renders a synthetic trace into memory.
func synthBytes(t *testing.T, spec stream.SynthSpec) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, _, err := stream.Synth(spec, &buf); err != nil {
		t.Fatalf("Synth: %v", err)
	}
	return buf.Bytes()
}

func salvageSource(t *testing.T, data []byte, f *faultinject.Flips, o stream.SourceOptions) *stream.Source {
	t.Helper()
	var r = &faultinject.ReaderAt{R: bytes.NewReader(data), F: f}
	src, err := stream.NewSourceOpts(r, o)
	if err != nil {
		t.Fatalf("NewSourceOpts: %v", err)
	}
	return src
}

// TestSalvageCleanIdentity: over an intact file, the v2 codec and the
// salvage machinery must both be invisible — the v1 pipeline, the v2
// pipeline, and the v2+salvage pipeline produce identical output bytes,
// and nothing is reported lost.
func TestSalvageCleanIdentity(t *testing.T) {
	base := stream.SynthSpec{Ranks: 3, Steps: 40, CollEvery: 4, Seed: xrand.SeedAt(salvageSeed, 0)}
	v2 := base
	v2.Version = trace.Version2
	v1Data := synthBytes(t, base)
	v2Data := synthBytes(t, v2)
	if bytes.Equal(v1Data, v2Data) {
		t.Fatal("v1 and v2 encodings are identical; framing is not being exercised")
	}

	type variant struct {
		name string
		data []byte
		opt  stream.SourceOptions
	}
	variants := []variant{
		{"v1", v1Data, stream.SourceOptions{}},
		{"v2", v2Data, stream.SourceOptions{}},
		{"v2-salvage", v2Data, stream.SourceOptions{Salvage: true}},
	}
	var want []byte
	for _, v := range variants {
		for _, procs := range diffProcs {
			for _, window := range []int{1, 4096} {
				for _, shards := range []int{1, 4} {
					t.Run(fmt.Sprintf("%s/k%d/w%d/s%d", v.name, procs, window, shards), func(t *testing.T) {
						withProcs(t, procs)
						src, err := stream.NewSourceOpts(bytes.NewReader(v.data), v.opt)
						if err != nil {
							t.Fatal(err)
						}
						if src.Salvaged() {
							t.Error("clean input reported as salvaged")
						}
						var out bytes.Buffer
						res, err := (stream.Pipeline{
							Base:    core.BaseNone,
							CLC:     true,
							Options: stream.Options{Window: window, Shards: shards},
						}).Run(src, &out, nil, nil)
						if err != nil {
							t.Fatal(err)
						}
						if want == nil {
							want = append([]byte(nil), out.Bytes()...)
						} else if !bytes.Equal(out.Bytes(), want) {
							t.Fatalf("output bytes differ from v1 baseline: %d vs %d", out.Len(), len(want))
						}
						for _, l := range res.Stats.Loss {
							if l.Any() {
								t.Errorf("clean input reported loss on rank %d: %+v", l.Rank, l)
							}
						}
					})
				}
			}
		}
	}
}

// TestSalvageDeterministic: the same corruption seed must produce the
// same corruption report, the same per-rank losses, and bit-identical
// salvaged output on either merge shape.
func TestSalvageDeterministic(t *testing.T) {
	spec := stream.SynthSpec{
		Ranks: 3, Steps: 200, CollEvery: 5,
		Seed: xrand.SeedAt(salvageSeed, 1), Version: trace.Version2, FrameEvents: 16,
	}
	data := synthBytes(t, spec)
	flips := faultinject.NewBurstFlips(xrand.SeedAt(salvageSeed, 2), int64(len(data)), 4, 64)
	if flips.Count() == 0 {
		t.Fatal("no corruption generated")
	}

	type runOut struct {
		rep  trace.CorruptionReport
		loss []stream.RankLoss
		sum  string
	}
	run := func(shards int) runOut {
		t.Helper()
		src := salvageSource(t, data, flips, stream.SourceOptions{Salvage: true})
		if !src.Salvaged() {
			t.Fatal("corrupted input not reported as salvaged")
		}
		var out bytes.Buffer
		res, err := (stream.Pipeline{
			Base:    core.BaseNone,
			Options: stream.Options{Shards: shards},
		}).Run(src, &out, nil, nil)
		if err != nil {
			t.Fatalf("shards %d: %v", shards, err)
		}
		sum, err := experiments.ChecksumTraceFile(bytes.NewReader(out.Bytes()))
		if err != nil {
			t.Fatalf("shards %d: checksum: %v", shards, err)
		}
		return runOut{rep: *src.Report(), loss: res.Stats.Loss, sum: sum}
	}

	first := run(1)
	if len(first.rep.Incidents) == 0 {
		t.Fatal("no incidents recorded for corrupted input")
	}
	if first.loss == nil {
		t.Fatal("no loss records on a salvaged run")
	}
	for _, shards := range []int{1, 4} {
		for rep := 0; rep < 2; rep++ {
			got := run(shards)
			if !reflect.DeepEqual(got.rep, first.rep) {
				t.Fatalf("shards %d rep %d: corruption report differs:\n got %+v\nwant %+v", shards, rep, got.rep, first.rep)
			}
			if !reflect.DeepEqual(got.loss, first.loss) {
				t.Fatalf("shards %d rep %d: losses differ:\n got %+v\nwant %+v", shards, rep, got.loss, first.loss)
			}
			if got.sum != first.sum {
				t.Fatalf("shards %d rep %d: salvaged checksum %s != %s", shards, rep, got.sum, first.sum)
			}
		}
	}
}

// TestSalvageRecoveryRatio: a 1M-event v2 trace with bursty corruption
// totaling 0.01% of its bytes must salvage at least 99% of the events,
// and the CLC stage must still drive clock-condition violations among
// the retained events to zero.
func TestSalvageRecoveryRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-event trace")
	}
	if raceEnabled {
		t.Skip("1M-event trace under the race detector; TestSalvageDeterministic races the same machinery at small scale")
	}
	spec := stream.SynthSpec{
		Ranks: 4, Steps: 62500, // 4 ranks x 62500 steps x 4 events = 1e6
		Seed: xrand.SeedAt(salvageSeed, 3), Version: trace.Version2,
	}
	data := synthBytes(t, spec)
	total := int64(len(data))
	corrupt := total / 10000 // 0.01% of bytes
	const burstLen = 256
	bursts := int(corrupt / burstLen)
	flips := faultinject.NewBurstFlips(xrand.SeedAt(salvageSeed, 4), total, bursts, burstLen)
	t.Logf("trace: %d bytes, corrupting ~%d bytes in %d bursts", total, flips.Count(), bursts)

	src := salvageSource(t, data, flips, stream.SourceOptions{Salvage: true})
	if !src.Salvaged() {
		t.Fatal("corrupted input not reported as salvaged")
	}
	const totalEvents = 1_000_000
	retained := src.Events()
	ratio := float64(retained) / totalEvents
	t.Logf("retained %d/%d events (%.4f)", retained, totalEvents, ratio)
	if ratio < 0.99 {
		t.Fatalf("salvage ratio %.4f < 0.99", ratio)
	}

	var out bytes.Buffer
	res, err := (stream.Pipeline{Base: core.BaseNone, CLC: true}).Run(src, &out, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.CLCReport.ViolationsAfter != 0 {
		t.Errorf("%d clock-condition violations remain on retained events", res.CLCReport.ViolationsAfter)
	}
	if _, err := experiments.ChecksumTraceFile(bytes.NewReader(out.Bytes())); err != nil {
		t.Fatalf("salvaged output does not read back: %v", err)
	}
}

// TestSalvageBudget: a skip budget smaller than the damage fails the
// index pass with trace.ErrSalvageBudget instead of silently eating an
// unbounded gap.
func TestSalvageBudget(t *testing.T) {
	spec := stream.SynthSpec{
		Ranks: 2, Steps: 100, Seed: xrand.SeedAt(salvageSeed, 5),
		Version: trace.Version2, FrameEvents: 16,
	}
	data := synthBytes(t, spec)
	flips := faultinject.NewBurstFlips(xrand.SeedAt(salvageSeed, 6), int64(len(data)), 3, 128)
	r := &faultinject.ReaderAt{R: bytes.NewReader(data), F: flips}
	_, err := stream.NewSourceOpts(r, stream.SourceOptions{Salvage: true, MaxSkipBytes: 1})
	if !errors.Is(err, trace.ErrSalvageBudget) {
		t.Fatalf("want ErrSalvageBudget, got %v", err)
	}
	// the same damage within budget succeeds
	if _, err := stream.NewSourceOpts(r, stream.SourceOptions{Salvage: true}); err != nil {
		t.Fatalf("unlimited budget: %v", err)
	}
}

// TestSalvageTruncated: cutting the file off mid-stream loses the tail
// ranks entirely; salvage must keep the prefix, synthesize placeholder
// ranks, and mark their loss unknown rather than inventing counts.
func TestSalvageTruncated(t *testing.T) {
	spec := stream.SynthSpec{
		Ranks: 4, Steps: 50, Seed: xrand.SeedAt(salvageSeed, 7),
		Version: trace.Version2, FrameEvents: 16,
	}
	data := synthBytes(t, spec)
	cut := int64(len(data) * 55 / 100)
	r := &faultinject.TruncatedReaderAt{R: bytes.NewReader(data), N: cut}
	src, err := stream.NewSourceOpts(r, stream.SourceOptions{Salvage: true})
	if err != nil {
		t.Fatalf("NewSourceOpts on truncated input: %v", err)
	}
	if !src.Salvaged() {
		t.Fatal("truncated input not reported as salvaged")
	}
	if src.Ranks() != 4 {
		t.Fatalf("got %d ranks, want 4 (placeholders for the lost tail)", src.Ranks())
	}
	loss := src.Losses()
	if !loss[3].Unknown {
		t.Errorf("tail rank loss not marked unknown: %+v", loss[3])
	}
	if src.Events() == 0 {
		t.Fatal("no events retained from the intact prefix")
	}
	sum, lsum, err := stream.Summarize(src)
	if err != nil {
		t.Fatalf("Summarize: %v", err)
	}
	if sum.Events != int(src.Events()) {
		t.Errorf("summary counted %d events, source retained %d", sum.Events, src.Events())
	}
	if lsum == nil {
		t.Error("Summarize returned no loss records for a salvaged source")
	}
	// strict mode must refuse the same truncated input
	if _, err := stream.NewSourceOpts(r, stream.SourceOptions{}); err == nil {
		t.Fatal("strict mode accepted a truncated trace")
	}
}

// TestSalvageV1Strict: v1 traces carry no checksums, so salvage cannot
// help — corruption in a v1 body must still fail the index pass.
func TestSalvageV1Strict(t *testing.T) {
	spec := stream.SynthSpec{Ranks: 2, Steps: 50, Seed: xrand.SeedAt(salvageSeed, 8)}
	data := append([]byte(nil), synthBytes(t, spec)...)
	// stomp a run of event bytes near the middle
	mid := len(data) / 2
	for i := 0; i < 32; i++ {
		data[mid+i] ^= 0xFF
	}
	_, err := stream.NewSourceOpts(bytes.NewReader(data), stream.SourceOptions{Salvage: true})
	if err == nil {
		t.Fatal("corrupted v1 trace indexed successfully; v1 has no redundancy to salvage with")
	}
}

// TestSpillSalvageInteraction: the window-overflow policies keep their
// semantics under salvage — PolicyError still fails fast on overflow,
// PolicySpill completes with both spill stats and loss records — and an
// injected SpillFS with a byte quota turns spill-volume exhaustion into
// a clean ErrNoSpace failure, not a hang or a partial result.
func TestSpillSalvageInteraction(t *testing.T) {
	spec := stream.SynthSpec{
		Ranks: 3, Steps: 120, CollEvery: 1,
		Seed: xrand.SeedAt(salvageSeed, 9), Version: trace.Version2, FrameEvents: 16,
	}
	data := synthBytes(t, spec)
	flips := faultinject.NewBurstFlips(xrand.SeedAt(salvageSeed, 10), int64(len(data)), 2, 64)
	src := salvageSource(t, data, flips, stream.SourceOptions{Salvage: true})

	// PolicyError still enforces the window bound under salvage
	_, err := (stream.Pipeline{
		Base:    core.BaseNone,
		Options: stream.Options{Window: 1, Policy: stream.PolicyError},
	}).Run(src, nil, nil, nil)
	if !errors.Is(err, stream.ErrWindowExceeded) {
		t.Fatalf("PolicyError under salvage: want ErrWindowExceeded, got %v", err)
	}

	// PolicySpill completes, reporting both overflow stats and losses
	fs := faultinject.NewFS(-1)
	res, err := (stream.Pipeline{
		Base: core.BaseNone,
		CLC:  true,
		Options: stream.Options{
			Window: 1, Policy: stream.PolicySpill, SpillFS: fs,
		},
	}).Run(src, nil, nil, nil)
	if err != nil {
		t.Fatalf("PolicySpill under salvage: %v", err)
	}
	if res.Stats.MaxPending <= 1 {
		t.Errorf("MaxPending = %d, want > window", res.Stats.MaxPending)
	}
	anyLoss := false
	for _, l := range res.Stats.Loss {
		anyLoss = anyLoss || l.Any()
	}
	if !anyLoss {
		t.Error("no loss recorded despite corrupted input")
	}
	if creates, _ := fs.Stats(); creates == 0 {
		t.Error("injected SpillFS was never used by the CLC stage")
	}

	// a starved spill store fails the run with ErrNoSpace
	src2 := salvageSource(t, data, flips, stream.SourceOptions{Salvage: true})
	_, err = (stream.Pipeline{
		Base: core.BaseNone,
		CLC:  true,
		Options: stream.Options{
			Window: 1, Policy: stream.PolicySpill,
			SpillFS: faultinject.NewFS(64),
		},
	}).Run(src2, nil, nil, nil)
	if !errors.Is(err, faultinject.ErrNoSpace) {
		t.Fatalf("starved SpillFS: want ErrNoSpace, got %v", err)
	}
}

// TestSpillAbortCleanup: when a run over the OS spill store aborts —
// here via PolicyError mid-walk with the CLC stage already spilling —
// every temp file and the spill directory itself must be gone.
func TestSpillAbortCleanup(t *testing.T) {
	tmp := t.TempDir()
	t.Setenv("TMPDIR", tmp)
	path, _, _ := synthFile(t, stream.SynthSpec{
		Ranks: 3, Steps: 30, CollEvery: 1, Seed: xrand.SeedAt(salvageSeed, 11),
	})
	src := openSource(t, path)
	_, err := (stream.Pipeline{
		Base:    core.BaseNone,
		CLC:     true,
		Options: stream.Options{Window: 1, Policy: stream.PolicyError},
	}).Run(src, nil, nil, nil)
	if !errors.Is(err, stream.ErrWindowExceeded) {
		t.Fatalf("want ErrWindowExceeded, got %v", err)
	}
	ents, rerr := os.ReadDir(tmp)
	if rerr != nil {
		t.Fatal(rerr)
	}
	for _, e := range ents {
		t.Errorf("leftover temp entry after aborted run: %s", e.Name())
	}
}
