package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"tsync/internal/stream"
	"tsync/internal/trace"
)

// TestOutputOnlyOnSuccess: -o names a file only once the run has
// succeeded. A run that fails after the output was opened (here on frame
// damage the first pass finds, and on a window the error policy refuses
// to exceed) leaves nothing there, and nothing beside it.
func TestOutputOnlyOnSuccess(t *testing.T) {
	dir := t.TempDir()
	var buf bytes.Buffer
	spec := stream.SynthSpec{Ranks: 3, Steps: 200, CollEvery: 4, Seed: 7, Version: trace.Version2, Columnar: true, FrameEvents: 32}
	if _, _, err := stream.Synth(spec, &buf); err != nil {
		t.Fatal(err)
	}
	good := filepath.Join(dir, "good.etr")
	if err := os.WriteFile(good, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	damaged := append([]byte(nil), buf.Bytes()...)
	damaged[len(damaged)/2] ^= 0x40
	bad := filepath.Join(dir, "bad.etr")
	if err := os.WriteFile(bad, damaged, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.etr")
	leftovers := func() []string {
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range ents {
			if n := e.Name(); n != "good.etr" && n != "bad.etr" {
				names = append(names, n)
			}
		}
		return names
	}

	o := options{in: bad, out: out, base: "none", withCLC: true, spill: "spill"}
	if _, err := run(o); !errors.Is(err, trace.ErrBadFormat) {
		t.Fatalf("damaged input: %v, want a format error", err)
	}
	if left := leftovers(); len(left) != 0 {
		t.Errorf("the run on a damaged input left %v", left)
	}
	o = options{in: good, out: out, base: "none", withCLC: true, spill: "error", window: 1}
	if _, err := run(o); !errors.Is(err, stream.ErrWindowExceeded) {
		t.Fatalf("window 1 under -spill error: %v, want ErrWindowExceeded", err)
	}
	if left := leftovers(); len(left) != 0 {
		t.Errorf("the run that exceeded its window left %v", left)
	}
	o = options{in: good, out: out, base: "none", withCLC: true, spill: "spill"}
	if _, err := run(o); err != nil {
		t.Fatal(err)
	}
	if left := leftovers(); len(left) != 1 || left[0] != "out.etr" {
		t.Errorf("the successful run left %v, want out.etr alone", left)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := trace.Read(f); err != nil {
		t.Errorf("out.etr does not read back: %v", err)
	}
}
