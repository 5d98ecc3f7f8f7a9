package stream

import (
	"context"
	"fmt"
	"io"
	"math"

	"tsync/internal/trace"
)

// lamportSink computes Lamport clocks online. Because the engine's merge
// order is topological, the single pass lc = max(prev+1, max src+1)
// reaches the same fixpoint as lclock.Lamport's iterative sweeps; clock
// values travel along edges in EdgeData.Value (exact in a float64 far
// beyond any realistic trace length).
type lamportSink struct {
	base, delta float64
	prev        []uint64
	writers     []*spillWriter
}

func newLamportSink(src *Source, delta float64, spills *spillSet) (*lamportSink, error) {
	// the schedule starts at the earliest first timestamp of any rank
	base := math.Inf(1)
	var first trace.Event
	for r := 0; r < src.Ranks(); r++ {
		switch err := src.Cursor(r).Next(&first); {
		case err == io.EOF: // the rank recorded no events
		case err != nil:
			return nil, err
		case first.Time < base:
			base = first.Time
		}
	}
	if math.IsInf(base, 1) {
		base = 0
	}
	s := &lamportSink{base: base, delta: delta, prev: make([]uint64, src.Ranks()), writers: make([]*spillWriter, src.Ranks())}
	for r := range s.writers {
		w, err := spills.writer(r)
		if err != nil {
			return nil, err
		}
		s.writers[r] = w
	}
	return s, nil
}

func (s *lamportSink) event(rank, idx int, ev *trace.Event, mapped float64, in []InEdge) (EdgeData, error) {
	v := s.prev[rank] + 1
	for _, e := range in {
		if sv := uint64(e.Data.Value) + 1; sv > v {
			v = sv
		}
	}
	s.prev[rank] = v
	if err := s.writers[rank].write(s.base + float64(v)*s.delta); err != nil {
		return EdgeData{}, err
	}
	return EdgeData{Raw: ev.Time, Mapped: mapped, Value: float64(v)}, nil
}

func (s *lamportSink) final(EventRef) error { return nil }
func (s *lamportSink) rankDone(int) error   { return nil }

func (s *lamportSink) flush() error {
	for _, w := range s.writers {
		if err := w.close(); err != nil {
			return err
		}
	}
	return nil
}

// LamportSchedule streams the purely logical schedule (lclock's baseline:
// Time = firstTime + LC·delta) from src to out, bit-identical to
// lclock.LamportSchedule followed by trace.Write.
func LamportSchedule(src *Source, delta float64, out io.Writer, opt Options) (Stats, error) {
	return LamportScheduleContext(context.Background(), src, delta, out, opt)
}

// LamportScheduleContext is LamportSchedule under a context.
func LamportScheduleContext(ctx context.Context, src *Source, delta float64, out io.Writer, opt Options) (Stats, error) {
	if delta <= 0 {
		return Stats{}, fmt.Errorf("stream: LamportSchedule needs positive delta, got %v", delta)
	}
	var stats Stats
	acct := begin(src, opt, &stats)
	spills, err := newSpillSet(src.Ranks(), acct.opt.SpillFS)
	if err != nil {
		return stats, err
	}
	defer spills.Close()
	snk, err := newLamportSink(src, delta, spills)
	if err != nil {
		return stats, err
	}
	if err := walk(ctx, src, identityMapper{}, snk, acct); err != nil {
		return stats, err
	}
	_, err = assembleMeasure(ctx, src, spills.mapper(), out, acct.opt)
	return stats, err
}
