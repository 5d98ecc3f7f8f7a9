package stream_test

// Fingerprint-stage differential tests: the per-rank drift report must
// be bit-identical across workers and batch sizes (the diff-harness
// pattern), identical between the standalone rank-major pass and the
// pipeline's teed first walk, and enabling the stage must not move a
// single bit of any other pipeline output.

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"tsync/internal/faultinject"
	"tsync/internal/fingerprint"
	"tsync/internal/stream"
	"tsync/internal/xrand"
)

const fpSeed = 0xf1b9e2

// fpSpec is a distorted workload exercising all three fault kinds.
func fpSpec(seed uint64) stream.SynthSpec {
	return stream.SynthSpec{
		Ranks: 4, Steps: 800, CollEvery: 16, Seed: seed,
		DistortClock: faultinject.Distort([]faultinject.ClockFault{
			{Rank: 1, Kind: faultinject.Step, At: 0.25, Delta: 1e-3},
			{Rank: 2, Kind: faultinject.FreqJump, At: 0.4, Delta: 8e-4},
			{Rank: 3, Kind: faultinject.Reset, At: 0.6, Delta: 0.1},
		}),
	}
}

// TestFingerprintDeterminism: batch {1,4096} must both produce the
// reference report bit for bit, with identical output
// bytes, and the standalone Fingerprint pass must agree with the
// pipeline stage.
func TestFingerprintDeterminism(t *testing.T) {
	path, init, fin := synthFile(t, fpSpec(xrand.SeedAt(fpSeed, 1)))
	fpo := fingerprint.Options{}

	src := openSource(t, path)
	refRep, _, err := stream.Fingerprint(src, stream.Options{}, fpo)
	if err != nil {
		t.Fatalf("Fingerprint: %v", err)
	}
	if refRep.Breaks() != 3 {
		t.Fatalf("reference report found %d breaks, want 3", refRep.Breaks())
	}

	var refOut []byte
	for _, batch := range []int{1, 4096} {
		p := stream.Pipeline{Fingerprint: &fpo, Options: stream.Options{Batch: batch}}
		var out bytes.Buffer
		res, err := p.Run(openSource(t, path), &out, init, fin)
		if err != nil {
			t.Fatalf("batch=%d: %v", batch, err)
		}
		if res.Fingerprint == nil {
			t.Fatalf("batch=%d: no fingerprint report", batch)
		}
		if !reflect.DeepEqual(res.Fingerprint, refRep) {
			t.Errorf("batch=%d: fingerprint report differs from the standalone pass", batch)
		}
		if refOut == nil {
			refOut = out.Bytes()
		} else if !bytes.Equal(refOut, out.Bytes()) {
			t.Errorf("batch=%d: output bytes differ", batch)
		}
	}
}

// TestFingerprintObserverOnly: a pipeline with the fingerprint stage on
// must reproduce every other output of the same pipeline with it off —
// bit for bit, including through the CLC path's sink tee.
func TestFingerprintObserverOnly(t *testing.T) {
	path, init, fin := synthFile(t, fpSpec(xrand.SeedAt(fpSeed, 2)))
	fpo := fingerprint.Options{}
	for _, useCLC := range []bool{false, true} {
		var plainOut, fpOut bytes.Buffer
		plain := stream.Pipeline{CLC: useCLC}
		resPlain, err := plain.Run(openSource(t, path), &plainOut, init, fin)
		if err != nil {
			t.Fatalf("clc=%v plain: %v", useCLC, err)
		}
		withFP := stream.Pipeline{CLC: useCLC, Fingerprint: &fpo}
		resFP, err := withFP.Run(openSource(t, path), &fpOut, init, fin)
		if err != nil {
			t.Fatalf("clc=%v fingerprint: %v", useCLC, err)
		}
		if !bytes.Equal(plainOut.Bytes(), fpOut.Bytes()) {
			t.Errorf("clc=%v: fingerprint stage changed the output bytes", useCLC)
		}
		if !reflect.DeepEqual(resPlain.Before, resFP.Before) || !reflect.DeepEqual(resPlain.After, resFP.After) {
			t.Errorf("clc=%v: fingerprint stage changed a census", useCLC)
		}
		if !reflect.DeepEqual(resPlain.CLCReport, resFP.CLCReport) {
			t.Errorf("clc=%v: fingerprint stage changed the CLC report", useCLC)
		}
		if resPlain.Distortion != resFP.Distortion {
			t.Errorf("clc=%v: fingerprint stage changed the distortion figures", useCLC)
		}
		if resFP.Fingerprint == nil || len(resFP.Fingerprint.Ranks) != 4 {
			t.Errorf("clc=%v: fingerprint report missing", useCLC)
		}
		if resPlain.Fingerprint != nil {
			t.Errorf("clc=%v: report present without the stage enabled", useCLC)
		}
	}
}

// TestFingerprintAutoKnotCorrection: the report's auto-knot correction
// plugs back into the pipeline as the base correction and the distorted
// ranks map near the master base again (the -autoknots path).
func TestFingerprintAutoKnotCorrection(t *testing.T) {
	spec := fpSpec(xrand.SeedAt(fpSeed, 3))
	// drop the reset: its rank degrades to a single piece by design
	spec.DistortClock = faultinject.Distort([]faultinject.ClockFault{
		{Rank: 1, Kind: faultinject.Step, At: 0.25, Delta: 1e-3},
		{Rank: 2, Kind: faultinject.FreqJump, At: 0.4, Delta: 8e-4},
	})
	path, init, fin := synthFile(t, spec)
	rep, _, err := stream.Fingerprint(openSource(t, path), stream.Options{}, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	corr, degraded, err := rep.AutoCorrection()
	if err != nil {
		t.Fatal(err)
	}
	if len(degraded) != 0 {
		t.Fatalf("degraded ranks %v without a reset", degraded)
	}
	p := stream.Pipeline{Correction: corr}
	var out bytes.Buffer
	res, err := p.Run(openSource(t, path), &out, init, fin)
	if err != nil {
		t.Fatalf("pipeline with auto-knot correction: %v", err)
	}
	// the knotted correction must repair at least the message reversals
	// the faults introduced
	if res.After.Reversed >= res.Before.Reversed {
		t.Errorf("auto-knot correction did not reduce reversals: before %d, after %d",
			res.Before.Reversed, res.After.Reversed)
	}
}

// TestFingerprintContextCancel: the standalone pass honors
// cancellation.
func TestFingerprintContextCancel(t *testing.T) {
	path, _, _ := synthFile(t, fpSpec(xrand.SeedAt(fpSeed, 4)))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := stream.FingerprintContext(ctx, openSource(t, path), stream.Options{}, fingerprint.Options{}); err == nil {
		t.Fatal("canceled fingerprint pass returned no error")
	}
}
