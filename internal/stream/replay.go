package stream

import (
	"context"

	"tsync/internal/interp"
	"tsync/internal/lclock"
	"tsync/internal/trace"
)

// repclSink stamps the merged event stream with replay clocks. The
// engine delivers events in a topological order of the happened-before
// graph with every incoming cross edge resolved, which is exactly the
// order contract lclock.RepClStamper needs; its final() callback fires
// once an event's out-edges are all consumed, so the sink releases the
// stamp there and the retained-stamp footprint stays proportional to
// the engine's reorder window, not the trace.
type repclSink struct {
	st *lclock.RepClStamper
}

func (s *repclSink) event(rank, idx int, ev *trace.Event, mapped float64, in []InEdge) (EdgeData, error) {
	var srcs []lclock.EventRef
	if len(in) > 0 {
		srcs = make([]lclock.EventRef, len(in))
		for i, e := range in {
			srcs[i] = lclock.EventRef{Rank: e.From.Rank, Idx: e.From.Idx}
		}
	}
	if _, err := s.st.Stamp(rank, idx, mapped, srcs); err != nil {
		return EdgeData{}, err
	}
	return EdgeData{Raw: ev.Time, Mapped: mapped}, nil
}

func (s *repclSink) final(ref EventRef) error {
	s.st.Release(lclock.EventRef{Rank: ref.Rank, Idx: ref.Idx})
	return nil
}
func (s *repclSink) rankDone(int) error { return nil }
func (s *repclSink) flush() error       { return nil }

// ReplayStats summarizes a streaming RepCl stamping pass.
type ReplayStats struct {
	// Events is how many events were stamped.
	Events int64
	// EpochSkew counts ε-window clamps: events whose corrected local
	// time lagged more than Epsilon×Interval behind causally known
	// time under the applied correction.
	EpochSkew int
	// MaxEpoch is the highest epoch any stamp reached.
	MaxEpoch uint64
	// Checksum is the per-rank stamp digest combined in rank order; it
	// matches lclock.StampsDigest of the in-memory stamping pass bit
	// for bit (the differential tests enforce this).
	Checksum string
	// Stats carries the engine-side accounting, including salvage
	// losses.
	Stats Stats
}

// ReplayStamp runs the RepCl stamping pass over src in bounded memory,
// mapping timestamps through corr first when non-nil (the correction a
// replay consumer would trust). It is the streaming counterpart of
// lclock.RepClStamps: same order, same merges, same digest.
func ReplayStamp(src *Source, corr *interp.Correction, cfg lclock.RepClConfig, opt Options) (ReplayStats, error) {
	return ReplayStampContext(context.Background(), src, corr, cfg, opt)
}

// ReplayStampContext is ReplayStamp under a context.
func ReplayStampContext(ctx context.Context, src *Source, corr *interp.Correction, cfg lclock.RepClConfig, opt Options) (ReplayStats, error) {
	var rs ReplayStats
	acct := begin(src, opt, &rs.Stats)
	var m timeMapper = identityMapper{}
	if corr != nil {
		m = newCorrMapper(corr)
	}
	s := &repclSink{st: lclock.NewRepClStamper(src.Ranks(), cfg)}
	if err := walk(ctx, src, m, s, acct); err != nil {
		return rs, err
	}
	rs.Events = s.st.Events()
	rs.EpochSkew = s.st.SkewClamps()
	rs.MaxEpoch = s.st.MaxEpoch()
	rs.Checksum = s.st.Digest()
	return rs, nil
}
