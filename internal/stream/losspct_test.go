package stream_test

// Regression tests for the loss-percentage guards: a destroyed header
// leaves a rank with zero retained events and an unknown expected
// count, and the percentage math must refuse to divide rather than
// report NaN, Inf, or a fabricated 0%.

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"tsync/internal/faultinject"
	"tsync/internal/stream"
	"tsync/internal/trace"
	"tsync/internal/xrand"
)

func TestRankLossPct(t *testing.T) {
	cases := []struct {
		name     string
		loss     stream.RankLoss
		retained int64
		wantPct  float64
		wantOK   bool
		// wantLine is what the CLIs' salvage report (WriteLoss) says of
		// the rank; empty when the record registers no loss.
		wantLine string
	}{
		{"no loss", stream.RankLoss{}, 100, 0, true, ""},
		{"half lost", stream.RankLoss{LostEvents: 50}, 50, 50, true, "  rank 0: 50 events lost (50.0%)\n"},
		{"all lost", stream.RankLoss{LostEvents: 10}, 0, 100, true, "  rank 0: 10 events lost (100.0%)\n"},
		{"unknown loss", stream.RankLoss{Unknown: true, LostEvents: 3}, 7, 0, false, "  rank 0: 3 events lost (?%) unknown loss\n"},
		{"destroyed header: nothing retained, nothing counted", stream.RankLoss{Unknown: true}, 0, 0, false, "  rank 0: unknown loss\n"},
		{"zero total without unknown flag", stream.RankLoss{}, 0, 0, false, ""},
		{"negative retained from a caller bug", stream.RankLoss{LostEvents: 5}, -5, 0, false, "  rank 0: 5 events lost (?%)\n"},
	}
	for _, tc := range cases {
		var report strings.Builder
		procs := []trace.ProcHeader{{EventCount: int(tc.retained)}}
		if err := stream.WriteLoss(&report, &trace.CorruptionReport{}, []stream.RankLoss{tc.loss}, procs); err != nil {
			t.Fatal(err)
		}
		if want := "\nsalvage: 0 incidents, 0 bytes skipped\n" + tc.wantLine; report.String() != want {
			t.Errorf("%s: WriteLoss printed %q, want %q", tc.name, report.String(), want)
		}
		pct, ok := tc.loss.LossPct(tc.retained)
		if ok != tc.wantOK || pct != tc.wantPct { //tsync:exact — guard contract: pct is exactly 0 when ok is false
			t.Errorf("%s: LossPct(%d) = (%v, %v), want (%v, %v)", tc.name, tc.retained, pct, ok, tc.wantPct, tc.wantOK)
		}
		if math.IsNaN(pct) || math.IsInf(pct, 0) {
			t.Errorf("%s: LossPct produced %v", tc.name, pct)
		}
	}
}

func TestCorruptionReportLossPct(t *testing.T) {
	r := trace.CorruptionReport{LostEvents: 25}
	if pct, ok := r.LossPct(75); !ok || pct != 25 { //tsync:exact — 25/(25+75) is exactly representable
		t.Errorf("LossPct(75) = (%v, %v), want (25, true)", pct, ok)
	}
	r.UnknownLoss = true
	if pct, ok := r.LossPct(75); ok || pct != 0 { //tsync:exact — guard contract: pct is exactly 0 when ok is false
		t.Errorf("unknown loss: LossPct = (%v, %v), want (0, false)", pct, ok)
	}
	empty := trace.CorruptionReport{}
	if pct, ok := empty.LossPct(0); ok || pct != 0 { //tsync:exact — guard contract: pct is exactly 0 when ok is false
		t.Errorf("empty report: LossPct(0) = (%v, %v), want (0, false)", pct, ok)
	}
}

// TestLossPctDestroyedHeader reproduces the original bug end to end: a
// trace truncated before the tail rank's header yields a placeholder
// rank with zero expected events, and the naive 100·lost/expected would
// have been NaN. The guard must report "unknown", never a number.
func TestLossPctDestroyedHeader(t *testing.T) {
	spec := stream.SynthSpec{
		Ranks: 4, Steps: 50, Seed: xrand.SeedAt(salvageSeed, 40),
		Version: trace.Version2, FrameEvents: 16,
	}
	data := synthBytes(t, spec)
	cut := int64(len(data) * 55 / 100)
	r := &faultinject.TruncatedReaderAt{R: bytes.NewReader(data), N: cut}
	src, err := stream.NewSourceOpts(r, stream.SourceOptions{Salvage: true})
	if err != nil {
		t.Fatalf("NewSourceOpts: %v", err)
	}
	loss := src.Losses()
	if !loss[3].Unknown {
		t.Fatalf("tail rank loss not unknown: %+v", loss[3])
	}
	retained := src.Procs()[3].EventCount
	if retained != 0 {
		t.Fatalf("placeholder rank retained %d events", retained)
	}
	if pct, ok := loss[3].LossPct(int64(retained)); ok || pct != 0 { //tsync:exact — guard contract: pct is exactly 0 when ok is false
		t.Errorf("destroyed header: LossPct = (%v, %v), want (0, false)", pct, ok)
	}
	if rep := src.Report(); rep != nil && rep.UnknownLoss {
		if pct, ok := rep.LossPct(src.Events()); ok || pct != 0 { //tsync:exact — guard contract: pct is exactly 0 when ok is false
			t.Errorf("report with unknown loss: LossPct = (%v, %v), want (0, false)", pct, ok)
		}
	}
}
