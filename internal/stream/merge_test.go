package stream

// The replace-top merge against the merge it replaced. headHeap reads its
// top and, a call later, puts the source's next head in that slot and
// sifts down once; the old heaps popped the minimum and pushed the refill
// back. The old one is kept here, test-only, as the oracle (as rewalk and
// decodeOnly are): both mergers must deliver its sequence event for event
// and, when a rank's decode fails, its error after the same last event.

import (
	"bytes"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"tsync/internal/trace"
)

// refMerger is the pop-then-push merge: a binary heap of rank numbers
// ordered by their heads' (True, rank), one synchronous cursor per rank.
type refMerger struct {
	curs    []*Cursor
	heads   []trace.Event
	h       []int
	pending int // rank to refill before the next pop; -1 = none
}

func newRefMerger(src *Source) *refMerger {
	m := &refMerger{curs: make([]*Cursor, src.Ranks()), heads: make([]trace.Event, src.Ranks()), pending: -1}
	for r := range m.curs {
		m.curs[r] = src.Cursor(r)
	}
	return m
}

func (m *refMerger) less(a, b int) bool {
	switch ta, tb := m.heads[a].True, m.heads[b].True; {
	case ta < tb:
		return true
	case tb < ta:
		return false
	}
	return a < b
}

func (m *refMerger) push(r int) {
	m.h = append(m.h, r)
	for i := len(m.h) - 1; i > 0; {
		p := (i - 1) / 2
		if !m.less(m.h[i], m.h[p]) {
			break
		}
		m.h[i], m.h[p] = m.h[p], m.h[i]
		i = p
	}
}

func (m *refMerger) pop() int {
	top := m.h[0]
	last := len(m.h) - 1
	m.h[0] = m.h[last]
	m.h = m.h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if rgt := c + 1; rgt < last && m.less(m.h[rgt], m.h[c]) {
			c = rgt
		}
		if !m.less(m.h[c], m.h[i]) {
			break
		}
		m.h[i], m.h[c] = m.h[c], m.h[i]
		i = c
	}
	return top
}

func (m *refMerger) prime(r int) error {
	switch err := m.curs[r].Next(&m.heads[r]); err {
	case nil:
		m.push(r)
	case io.EOF:
	default:
		return err
	}
	return nil
}

func (m *refMerger) next() (int, *trace.Event, error) {
	if r := m.pending; r >= 0 {
		m.pending = -1
		if err := m.prime(r); err != nil {
			return 0, nil, err
		}
	}
	if len(m.h) == 0 {
		return 0, nil, io.EOF
	}
	r := m.pop()
	m.pending = r
	return r, &m.heads[r], nil
}

type mergedEvent struct {
	rank int
	ev   trace.Event
}

// drain plays walk's part: prime every rank in order, then next until
// io.EOF or an error, which it returns with the events delivered first.
func drain(m merged, ranks int) ([]mergedEvent, error) {
	for r := 0; r < ranks; r++ {
		if err := m.prime(r); err != nil {
			return nil, err
		}
	}
	var seq []mergedEvent
	for {
		r, ev, err := m.next()
		if err == io.EOF {
			return seq, nil
		}
		if err != nil {
			return seq, err
		}
		seq = append(seq, mergedEvent{r, *ev})
	}
}

// mergeTrace builds a trace of local events whose oracle times follow
// at(r, i), count(r) of them on rank r.
func mergeTrace(ranks int, count func(r int) int, at func(r, i int) float64) *trace.Trace {
	tr := &trace.Trace{Machine: "merge", Timer: "oracle", Regions: []string{"r"}}
	for r := 0; r < ranks; r++ {
		p := trace.Proc{Rank: r}
		for i := 0; i < count(r); i++ {
			ev := trace.Event{Kind: trace.Kind(i % 2), True: at(r, i), Region: int32(i)}
			ev.SetTime(ev.True)
			p.Events = append(p.Events, ev)
		}
		tr.Procs = append(tr.Procs, p)
	}
	return tr
}

// sameMerge drains the oracle, the flat merger and the tree at three
// fan-outs over data and fails unless all deliver the oracle's events and
// the oracle's error. It returns what the oracle delivered.
func sameMerge(t *testing.T, data []byte) ([]mergedEvent, error) {
	t.Helper()
	open := func() *Source {
		src, err := NewSource(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		return src
	}
	src := open()
	want, wantErr := drain(newRefMerger(src), src.Ranks())
	for _, batch := range []int{5, DefaultBatch} {
		for _, shards := range []int{1, 3, 8, src.Ranks()} {
			stop := make(chan struct{})
			opt := Options{Batch: batch}.Normalize()
			var m merged = newFlatMerger(src, opt, stop)
			if shards > 1 {
				m = newTreeMerger(src, opt, shards, stop)
			}
			got, err := drain(m, src.Ranks())
			close(stop)
			name := fmt.Sprintf("batch %d, shards %d", batch, shards)
			if fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Errorf("%s: error %v, oracle's %v", name, err, wantErr)
			}
			if len(got) != len(want) {
				t.Errorf("%s: %d events before the end, oracle %d", name, len(got), len(want))
				continue
			}
			for i := range got {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Errorf("%s: event %d is rank %d %+v, oracle's rank %d %+v", name, i, got[i].rank, got[i].ev, want[i].rank, want[i].ev)
					break
				}
			}
		}
	}
	return want, wantErr
}

func TestMergeMatchesPopPush(t *testing.T) {
	const ranks, perRank = 64, 96
	full := func(int) int { return perRank }
	cases := []struct {
		name  string
		count func(r int) int
		at    func(r, i int) float64
	}{
		// BenchmarkMergeTree's three interleavings
		{"hot", full, func(r, i int) float64 {
			if r == 0 {
				return float64(i) * 1e-6
			}
			return float64(i)*1e-3 + float64(r)*1e-8
		}},
		{"roundrobin", full, func(r, i int) float64 { return float64(i*ranks+r) * 1e-6 }},
		{"clustered", full, func(r, i int) float64 {
			return float64(r/8)*1e0 + float64(i)*1e-6 + float64(r%8)*1e-8
		}},
		// every rank stamps the same times: each tie spans all ranks and
		// all shards, and only the rank orders it
		{"ties", full, func(_, i int) float64 { return float64(i/3) * 1e-3 }},
		// ranks without events: the first, the last, a shard's first, and
		// (at 64 shards) whole shards
		{"empty-ranks", func(r int) int {
			if r == 0 || r == 8 || r == 21 || r == 22 || r == ranks-1 {
				return 0
			}
			return perRank - r
		}, func(r, i int) float64 { return float64(i)*1e-3 + float64(r%5)*1e-4 }},
	}
	for _, tc := range cases {
		for _, columnar := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/columnar=%v", tc.name, columnar), func(t *testing.T) {
				data := encodeV2(t, mergeTrace(ranks, tc.count, tc.at), 16, columnar)
				seq, err := sameMerge(t, data)
				if err != nil {
					t.Fatal(err)
				}
				total := 0
				for r := 0; r < ranks; r++ {
					total += tc.count(r)
				}
				if len(seq) != total {
					t.Fatalf("the oracle delivered %d of %d events", len(seq), total)
				}
				for i := 1; i < len(seq); i++ {
					a, b := seq[i-1], seq[i]
					if b.ev.True < a.ev.True || (!(a.ev.True < b.ev.True) && b.rank < a.rank) {
						t.Fatalf("the oracle's events %d and %d are out of (True, rank) order", i-1, i)
					}
				}
			})
		}
	}
}

// TestMergeErrorPosition: a rank whose decode fails mid-stream ends every
// merge after the same last event with the same error. Two failures: an
// oracle time that runs backwards inside a frame (the cursor's own check,
// mid-slab), and a frame whose checksum is wrong.
func TestMergeErrorPosition(t *testing.T) {
	const ranks, perRank, bad = 24, 80, 13
	at := func(r, i int) float64 { return float64(i)*1e-3 + float64(r%7)*1e-5 }
	full := func(int) int { return perRank }
	lastOfBad := func(seq []mergedEvent) int {
		n := 0
		for _, e := range seq {
			if e.rank == bad {
				n++
			}
		}
		return n
	}
	for _, columnar := range []bool{false, true} {
		t.Run(fmt.Sprintf("regressed/columnar=%v", columnar), func(t *testing.T) {
			tr := mergeTrace(ranks, full, at)
			tr.Procs[bad].Events[37].True = tr.Procs[bad].Events[36].True - 1e-6
			seq, err := sameMerge(t, encodeV2(t, tr, 16, columnar))
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("rank %d event 37: oracle time regressed", bad)) {
				t.Fatalf("oracle's error: %v", err)
			}
			if n := lastOfBad(seq); n != 37 || seq[len(seq)-1].rank != bad {
				t.Errorf("the merge ended %d events into rank %d on an event of rank %d, want 37 and that rank", n, bad, seq[len(seq)-1].rank)
			}
		})
		t.Run(fmt.Sprintf("checksum/columnar=%v", columnar), func(t *testing.T) {
			data := encodeV2(t, mergeTrace(ranks, full, at), 16, columnar)
			frames := 0
			for _, b := range scanBlocks(t, data) {
				if b.Frame && b.Rank == bad {
					if frames++; frames == 3 {
						data[b.End-1] ^= 0x40
					}
				}
			}
			seq, err := sameMerge(t, data)
			if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
				t.Fatalf("oracle's error: %v", err)
			}
			if n := lastOfBad(seq); n != 32 || seq[len(seq)-1].rank != bad {
				t.Errorf("the merge ended %d events into rank %d on an event of rank %d, want 32 (two 16-event frames) and that rank", n, bad, seq[len(seq)-1].rank)
			}
		})
	}
}
