package trace

// Round-trip coverage for the reader/writer position and metadata
// accessors that the streaming layer depends on: offsets must account
// for buffering, the v1 splice path must copy bytes verbatim, and the
// sanctioned SetTime door must actually write the field.

import (
	"bytes"
	"io"
	"testing"

	"tsync/internal/topology"
)

func TestSetTimeWritesField(t *testing.T) {
	var ev Event
	ev.SetTime(4.25)
	if ev.Time != 4.25 { //tsync:exact — the sanctioned setter must store the exact bits it was given
		t.Fatalf("SetTime: Time = %v, want 4.25", ev.Time)
	}
}

func TestHeaderMinLatencyBetween(t *testing.T) {
	tr := genTrace(2, 1, 1)
	tr.MinLatency = [4]float64{1e-9, 2e-9, 3e-9, 4e-9}
	h := HeaderOf(tr)
	a := topology.CoreID{Node: 0}
	b := topology.CoreID{Node: 1}
	if got, want := h.MinLatencyBetween(a, b), tr.MinLatencyBetween(0, 1); got != want { //tsync:exact — both sides read the same table entry; no arithmetic involved
		t.Fatalf("MinLatencyBetween: header %v, trace %v", got, want)
	}
}

func TestReaderWriterPositions(t *testing.T) {
	tr := genTrace(2, 32, 9)

	var buf bytes.Buffer
	ew, err := NewEventWriter(&buf, HeaderOf(tr))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range tr.Procs {
		ph := ProcHeader{Rank: p.Rank, Core: p.Core, Clock: p.Clock, EventCount: len(p.Events)}
		if err := ew.BeginProc(ph); err != nil {
			t.Fatal(err)
		}
		for i := range p.Events {
			if err := ew.Write(&p.Events[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := ew.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ew.Offset(); got != int64(buf.Len()) {
		t.Fatalf("writer Offset = %d, want the %d bytes written", got, buf.Len())
	}

	er, err := NewEventReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if v := er.Version(); v != Version1 {
		t.Fatalf("Version = %d, want %d", v, Version1)
	}
	if er.TookGap() {
		t.Fatal("TookGap true on a clean stream")
	}
	var prevEnd int64
	for {
		ph, err := er.NextProc()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if ss := er.SectionStart(); ss < prevEnd {
			t.Fatalf("rank %d: SectionStart %d before previous section end %d", ph.Rank, ss, prevEnd)
		}
		var ev Event
		for i := 0; i < ph.EventCount; i++ {
			if err := er.Read(&ev); err != nil {
				t.Fatal(err)
			}
		}
		if pos, off := er.Position(), er.Offset(); pos > off {
			t.Fatalf("rank %d: Position %d beyond Offset %d", ph.Rank, pos, off)
		}
		prevEnd = er.Position()
	}
	if got := er.Offset(); got != int64(buf.Len()) {
		t.Fatalf("reader Offset after EOF = %d, want %d", got, buf.Len())
	}
}
