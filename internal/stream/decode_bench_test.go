package stream

import (
	"bytes"
	"io"
	"testing"

	"tsync/internal/trace"
)

// BenchmarkFrameDecode is the per-format decode cost: one Synth trace
// shaped like the benchmark's `sync` workload (8 ranks, a collective
// every tenth step) at a tenth of its length, every rank's Cursor
// drained in DefaultBatch slabs as the merge stages drain it, once per
// binary encoding. ns/event is the cursor's CPU per event, B/event the
// file's size per event: what a format must be weighed on before it is
// made the only one.
func BenchmarkFrameDecode(b *testing.B) {
	for _, f := range []struct {
		name     string
		version  int
		columnar bool
	}{
		{"v1", trace.Version1, false},
		{"v2-row", trace.Version2, false},
		{"v2-columnar", trace.Version2, true},
	} {
		b.Run(f.name, func(b *testing.B) {
			var file bytes.Buffer
			spec := SynthSpec{Ranks: 8, Steps: 4000, CollEvery: 10, Version: f.version, Columnar: f.columnar}
			if _, _, err := Synth(spec, &file); err != nil {
				b.Fatal(err)
			}
			src, err := NewSource(bytes.NewReader(file.Bytes()))
			if err != nil {
				b.Fatal(err)
			}
			s := &slab{evs: make([]trace.Event, 0, DefaultBatch)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := 0; r < src.Ranks(); r++ {
					cur := src.Cursor(r)
					for err = nil; err == nil; {
						err = cur.fill(s)
					}
					if err != io.EOF {
						b.Fatal(err)
					}
				}
			}
			events := float64(src.Events())
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*events), "ns/event")
			b.ReportMetric(float64(file.Len())/events, "B/event")
		})
	}
}
