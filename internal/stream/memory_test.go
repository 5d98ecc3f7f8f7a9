package stream_test

// Memory bounds: what "bounded by the reorder window, not the trace
// length" means, measured. Live heap is /memory/classes/heap/objects:bytes
// above a post-GC baseline at GOGC=10, so that the peak follows the bytes
// the engine keeps and not the collector's pacing: benchmark/cmd/tsyncbench's
// peak_live_heap_mib. The samples are taken on the job's own input reads
// and output writes, a few hundred events apart in every pass, so no
// timer is involved.

import (
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync/atomic"
	"testing"

	"tsync/internal/core"
	"tsync/internal/measure"
	"tsync/internal/stream"
	"tsync/internal/trace"
	"tsync/internal/xrand"
)

const memorySeed = 0xbe9c14

// heapPeak records the highest live heap seen by sample.
type heapPeak struct{ peak atomic.Uint64 }

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

func (h *heapPeak) sample() {
	v := liveHeap()
	for {
		p := h.peak.Load()
		if v <= p || h.peak.CompareAndSwap(p, v) {
			return
		}
	}
}

// sampledInput and sampledOutput sample the heap on every ReadAt of the
// trace and every Write of the output.
type sampledInput struct {
	r io.ReaderAt
	h *heapPeak
}

func (s sampledInput) ReadAt(p []byte, off int64) (int, error) {
	s.h.sample()
	return s.r.ReadAt(p, off)
}

type sampledOutput struct{ h *heapPeak }

func (s sampledOutput) Write(p []byte) (int, error) {
	s.h.sample()
	return len(p), nil
}

// peakLiveHeap synthesizes spec into a file, runs job over a Source on
// it, and returns the peak of live heap above the baseline taken after
// the Source's index pass, with the event count.
func peakLiveHeap(t *testing.T, spec stream.SynthSpec, job func(src *stream.Source, out io.Writer, init, fin []measure.Offset) error) (peak uint64, events int64) {
	t.Helper()
	path, init, fin := synthFile(t, spec)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var h heapPeak
	src, err := stream.NewSource(sampledInput{r: f, h: &h})
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(10))
	runtime.GC()
	runtime.GC()
	base := liveHeap()
	h.peak.Store(base)
	if err := job(src, sampledOutput{h: &h}, init, fin); err != nil {
		t.Fatal(err)
	}
	h.sample()
	return h.peak.Load() - base, src.Events()
}

// TestWindowBoundedMemory: the full CLC pipeline's peak live heap does
// not grow with the trace. A trace four times longer on the same ranks
// peaks within a quarter (plus 2 MiB of collector slack) of the short
// one's, and far below a quarter of what materializing its events
// (~96 B each) would take.
func TestWindowBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("1.7M-event trace")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow memory and slowdown are not what is bounded here")
	}
	pipeline := func(src *stream.Source, out io.Writer, init, fin []measure.Offset) error {
		_, err := (stream.Pipeline{Base: core.BaseInterp, CLC: true}).Run(src, out, init, fin)
		return err
	}
	short := stream.SynthSpec{Ranks: 4, Steps: 25000, CollEvery: 10, Seed: xrand.SeedAt(memorySeed, 1)}
	long := short
	long.Steps *= 4
	shortPeak, shortEvents := peakLiveHeap(t, short, pipeline)
	longPeak, longEvents := peakLiveHeap(t, long, pipeline)
	t.Logf("peak live heap: %.1f MiB over %d events, %.1f MiB over %d events",
		float64(shortPeak)/(1<<20), shortEvents, float64(longPeak)/(1<<20), longEvents)
	if limit := shortPeak + shortPeak/4 + 2<<20; longPeak > limit {
		t.Errorf("peak live heap grew with the trace: %d bytes at %d events, %d at %d (limit %d)",
			shortPeak, shortEvents, longPeak, longEvents, limit)
	}
	if limit := uint64(longEvents) * 96 / 4; longPeak >= limit {
		t.Errorf("peak live heap %d bytes is not below a quarter of the %d events' in-memory footprint (%d)",
			longPeak, longEvents, limit)
	}
}

// TestTenThousandRankHeapBudget: a 10,000-rank columnar census through
// the automatic merge tree stays under 96 KiB of live heap per open rank
// (decode buffer, frame scratch, pooled slab share and merge-window
// share), whatever the trace length. That the tree's census equals the
// flat merge's is TestDifferentialShardTree's.
func TestTenThousandRankHeapBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("10,000-rank trace")
	}
	if raceEnabled {
		t.Skip("the race detector's shadow memory is not what is budgeted here")
	}
	spec := stream.SynthSpec{
		Ranks: 10000, Steps: 25, Seed: xrand.SeedAt(memorySeed, 2),
		Version: trace.Version2, Columnar: true, FrameEvents: 64,
	}
	if stream.ShardCount(spec.Ranks, 0) < 2 {
		t.Fatal("10,000 ranks do not select the merge tree")
	}
	peak, events := peakLiveHeap(t, spec, func(src *stream.Source, _ io.Writer, _, _ []measure.Offset) error {
		_, _, err := stream.Census(src, stream.Options{})
		return err
	})
	t.Logf("peak live heap: %.1f MiB over %d ranks, %d events", float64(peak)/(1<<20), spec.Ranks, events)
	if budget := uint64(spec.Ranks) * (96 << 10); peak >= budget {
		t.Errorf("peak live heap %d bytes exceeds the %d-byte budget (96 KiB per rank)", peak, budget)
	}
}

// TestWalkAllocsPerEvent: the engine's per-event state recycles (ring
// queues, pooled collective instances, channel records that stay), so a
// longer trace costs no more allocations than a short one beyond what
// slab-pool refills after a collection add. Each job runs at two lengths
// 4x apart; the allocations of the longer run less the shorter one's,
// per extra event, must stay at or under 0.01. (A slice-slide deque, a
// FIFO slice per message and two maps per collective instance read about
// 0.24 here.)
func TestWalkAllocsPerEvent(t *testing.T) {
	if raceEnabled {
		t.Skip("the race build inflates allocation counts")
	}
	pipeline := func(opt stream.Options) func(*stream.Source, []measure.Offset, []measure.Offset) error {
		return func(src *stream.Source, init, fin []measure.Offset) error {
			_, err := (stream.Pipeline{Base: core.BaseInterp, CLC: true, Options: opt}).Run(src, io.Discard, init, fin)
			return err
		}
	}
	census := func(opt stream.Options) func(*stream.Source, []measure.Offset, []measure.Offset) error {
		return func(src *stream.Source, _, _ []measure.Offset) error {
			_, _, err := stream.Census(src, opt)
			return err
		}
	}
	specs := []struct {
		name string
		at   func(steps int) stream.SynthSpec
		base int // steps of the shorter run
	}{
		{"8rank-coll10", func(steps int) stream.SynthSpec {
			return stream.SynthSpec{Ranks: 8, Steps: steps, CollEvery: 10, Seed: xrand.SeedAt(memorySeed, 3)}
		}, 1500},
		{"paper-case", func(steps int) stream.SynthSpec {
			return stream.PaperCaseSteps(xrand.SeedAt(memorySeed, 4), steps)
		}, 400},
	}
	jobs := []struct {
		name string
		run  func(stream.Options) func(*stream.Source, []measure.Offset, []measure.Offset) error
	}{{"pipeline", pipeline}, {"census", census}}
	for _, spec := range specs {
		for _, job := range jobs {
			for _, shards := range []int{1, 4} {
				name := spec.name + "/" + job.name + "/flat"
				if shards > 1 {
					name = spec.name + "/" + job.name + "/shards4"
				}
				t.Run(name, func(t *testing.T) {
					run := job.run(stream.Options{Shards: shards})
					measure := func(steps int) (allocs float64, events int64) {
						path, init, fin := synthFile(t, spec.at(steps))
						src := openSource(t, path)
						return testing.AllocsPerRun(3, func() {
							if err := run(src, init, fin); err != nil {
								t.Fatal(err)
							}
						}), src.Events()
					}
					shortAllocs, shortEvents := measure(spec.base)
					longAllocs, longEvents := measure(4 * spec.base)
					rate := (longAllocs - shortAllocs) / float64(longEvents-shortEvents)
					t.Logf("%.0f allocations over %d events, %.0f over %d: %.4f per extra event",
						shortAllocs, shortEvents, longAllocs, longEvents, rate)
					if rate > 0.01 {
						t.Errorf("%.4f allocations per extra event, want at most 0.01", rate)
					}
				})
			}
		}
	}
}
