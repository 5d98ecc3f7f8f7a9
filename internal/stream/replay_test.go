package stream_test

// Differential tests for the streaming RepCl stamping pass: the
// bounded-memory walk must produce the exact per-rank stamp digests of
// the in-memory lclock.RepClStamps pass — for any worker count, any
// batch size, any window, with and without a correction — and must
// survive a salvaged source without panicking while still counting
// every retained event.

import (
	"bytes"
	"testing"

	"tsync/internal/faultinject"
	"tsync/internal/interp"
	"tsync/internal/lclock"
	"tsync/internal/stream"
	"tsync/internal/trace"
	"tsync/internal/xrand"
)

const replayStampSeed = 0x9e7a11

func TestReplayStampMatchesInMemory(t *testing.T) {
	spec := stream.SynthSpec{Ranks: 4, Steps: 150, CollEvery: 6, Seed: xrand.SeedAt(replayStampSeed, 1)}
	data := synthBytes(t, spec)
	tr, err := trace.Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	init, fin, err := stream.Synth(spec, &buf)
	if err != nil {
		t.Fatal(err)
	}
	corr, err := interp.Linear(init, fin)
	if err != nil {
		t.Fatal(err)
	}
	cfg := lclock.RepClConfig{}.Normalize()

	for _, tc := range []struct {
		name string
		corr *interp.Correction
	}{
		{"uncorrected", nil},
		{"interp", corr},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ref := tr
			if tc.corr != nil {
				ref = tc.corr.Apply(tr)
			}
			stamps, skew, err := lclock.RepClStamps(ref, cfg)
			if err != nil {
				t.Fatal(err)
			}
			want := lclock.StampsDigest(stamps)

			for _, opt := range []stream.Options{
				{},
				{Batch: 7},
				{Window: 64, Batch: 3},
				{Shards: 4},
				{Window: 64, Batch: 3, Shards: 4},
			} {
				src, err := stream.NewSource(bytes.NewReader(data))
				if err != nil {
					t.Fatal(err)
				}
				rs, err := stream.ReplayStamp(src, tc.corr, cfg, opt)
				if err != nil {
					t.Fatalf("opt %+v: %v", opt, err)
				}
				if rs.Checksum != want {
					t.Errorf("opt %+v: stream digest %s != in-memory %s", opt, rs.Checksum, want)
				}
				if rs.EpochSkew != skew {
					t.Errorf("opt %+v: ε-skew %d != in-memory %d", opt, rs.EpochSkew, skew)
				}
				if wantEvents := int64(len(tr.Procs) * len(tr.Procs[0].Events)); rs.Events != wantEvents {
					t.Errorf("opt %+v: stamped %d events, want %d", opt, rs.Events, wantEvents)
				}
				if rs.MaxEpoch == 0 {
					t.Errorf("opt %+v: no epoch progress recorded", opt)
				}
			}
		})
	}
}

// TestReplayStampSalvaged: the stamping pass over a burst-corrupted,
// salvage-recovered v2 source completes, stamps exactly the surviving
// events, and is deterministic across engine configurations.
func TestReplayStampSalvaged(t *testing.T) {
	spec := stream.SynthSpec{
		Ranks: 3, Steps: 200, CollEvery: 5,
		Seed: xrand.SeedAt(replayStampSeed, 2), Version: trace.Version2, FrameEvents: 16,
	}
	data := synthBytes(t, spec)
	flips := faultinject.NewBurstFlips(xrand.SeedAt(replayStampSeed, 3), int64(len(data)), 3, 64)
	if flips.Count() == 0 {
		t.Fatal("no corruption generated")
	}

	run := func(opt stream.Options) stream.ReplayStats {
		t.Helper()
		src := salvageSource(t, data, flips, stream.SourceOptions{Salvage: true})
		rs, err := stream.ReplayStamp(src, nil, lclock.RepClConfig{}, opt)
		if err != nil {
			t.Fatalf("opt %+v: %v", opt, err)
		}
		return rs
	}

	first := run(stream.Options{})
	if first.Events == 0 {
		t.Fatal("nothing stamped")
	}
	total := int64(0)
	src := salvageSource(t, data, flips, stream.SourceOptions{Salvage: true})
	for _, ph := range src.Procs() {
		total += int64(ph.EventCount)
	}
	if first.Events != total {
		t.Fatalf("stamped %d events, source retains %d", first.Events, total)
	}
	for _, opt := range []stream.Options{{Batch: 5}, {Shards: 4}, {Batch: 5, Shards: 4}} {
		got := run(opt)
		if got.Checksum != first.Checksum || got.Events != first.Events || got.EpochSkew != first.EpochSkew {
			t.Fatalf("salvaged stamping diverged across configs: %+v vs %+v", got, first)
		}
	}
}
