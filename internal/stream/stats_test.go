package stream_test

import (
	"bytes"
	"reflect"
	"testing"

	"tsync/internal/stream"
	"tsync/internal/trace"
)

// TestSummarizeMatchesInMemory holds the streaming summary to
// trace.Summarize on a synthesized trace and on a hand-built one whose
// Enter events name regions the header does not: past the table,
// negative, two ids sharing one name, and a region that is itself called
// "?". All of those must land where the in-memory summary puts them.
func TestSummarizeMatchesInMemory(t *testing.T) {
	hand := &trace.Trace{
		Machine: "m", Timer: "t", Regions: []string{"main", "solve", "main", "?"},
		Procs: []trace.Proc{{Rank: 0}, {Rank: 1}},
	}
	at := 0.0
	add := func(rank int, ev trace.Event) {
		at += 1e-3
		ev.True = at
		ev.SetTime(at + float64(rank))
		hand.Procs[rank].Events = append(hand.Procs[rank].Events, ev)
	}
	for _, region := range []int32{0, 1, 2, 3, 4, 99, -1, 1} {
		add(0, trace.Event{Kind: trace.Enter, Region: region})
		add(0, trace.Event{Kind: trace.Exit, Region: region})
	}
	add(0, trace.Event{Kind: trace.Send, Partner: 1, Bytes: 640})
	add(1, trace.Event{Kind: trace.Enter, Region: 7})
	add(1, trace.Event{Kind: trace.Recv, Partner: 0, Bytes: 640})
	var handBuf bytes.Buffer
	if _, err := trace.Write(&handBuf, hand); err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"hand":  handBuf.Bytes(),
		"synth": synthBytes(t, stream.SynthSpec{Ranks: 4, Steps: 200, CollEvery: 5, Seed: 11}),
	}
	for name, data := range cases {
		mem, err := trace.Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		src, err := stream.NewSource(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, loss, err := stream.Summarize(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := trace.Summarize(mem); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: streaming summary\n %+v\nin-memory\n %+v", name, got, want)
		}
		if loss != nil {
			t.Errorf("%s: loss records for a clean source", name)
		}
		if name == "hand" && (got.Regions["?"] != 5 || got.Regions["main"] != 2) {
			t.Errorf("hand-built regions = %v, want 5 under \"?\" (ids 3, 4, 99, -1, 7) and 2 under \"main\"", got.Regions)
		}
	}
}
