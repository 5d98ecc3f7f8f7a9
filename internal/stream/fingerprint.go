package stream

import (
	"context"
	"io"

	"tsync/internal/fingerprint"
	"tsync/internal/trace"
)

// fingerprintSink tees the merge walk's raw (oracle, local) timestamp
// pairs into a drift tracker. It is an observer: it never alters the
// edge data traveling the graph, so enabling the fingerprint stage
// cannot change any other pipeline output (the differential tests pin
// that down). Determinism comes for free — the merge walk is
// sequential and delivers each rank's events in file order regardless
// of Batch or Shards, and the tracker is a pure fold over those
// per-rank sequences.
type fingerprintSink struct {
	tr *fingerprint.Tracker
}

func (s *fingerprintSink) event(rank, idx int, ev *trace.Event, mapped float64, in []InEdge) (EdgeData, error) {
	s.tr.Add(rank, ev.True, ev.Time)
	return EdgeData{Raw: ev.Time, Mapped: mapped}, nil
}

func (s *fingerprintSink) final(EventRef) error { return nil }
func (s *fingerprintSink) rankDone(int) error   { return nil }
func (s *fingerprintSink) flush() error         { return nil }

// Fingerprint scans src's raw timestamps in one streaming pass and
// returns the per-rank drift fingerprint report. The scan is
// rank-major, which feeds the tracker the exact per-rank sample
// sequences the merged pipeline walk would, so the report is
// bit-identical to Pipeline's fingerprint stage on the same source.
func Fingerprint(src *Source, opt Options, fpo fingerprint.Options) (*fingerprint.Report, Stats, error) {
	return FingerprintContext(context.Background(), src, opt, fpo)
}

// FingerprintContext is Fingerprint under a context.
func FingerprintContext(ctx context.Context, src *Source, opt Options, fpo fingerprint.Options) (*fingerprint.Report, Stats, error) {
	var st Stats
	begin(src, opt, &st)
	tr := fingerprint.NewTracker(src.Ranks(), fpo)
	ticks := 0
	var ev trace.Event
	for rank := 0; rank < src.Ranks(); rank++ {
		cur := src.Cursor(rank)
		for {
			if ticks&(ctxCheckEvery-1) == 0 {
				if err := ctx.Err(); err != nil {
					return nil, st, err
				}
			}
			ticks++
			if err := cur.Next(&ev); err == io.EOF {
				break
			} else if err != nil {
				return nil, st, err
			}
			tr.Add(rank, ev.True, ev.Time)
		}
	}
	return tr.Report(), st, nil
}
