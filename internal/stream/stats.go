package stream

import (
	"context"
	"io"

	"tsync/internal/trace"
)

// Summarize computes the same trace.Summary as trace.Summarize without
// materializing the trace: one rank-major pass over the source, holding a
// single event at a time. Every Summary field is either an integer count
// or a running min/max, so the result is bit-identical to the in-memory
// one regardless of traversal order; rank-major is used anyway to mirror
// trace.Summarize exactly. For salvaged sources the summary covers the
// retained events, and the returned loss records say what is missing
// (nil for clean sources).
func Summarize(src *Source) (trace.Summary, []RankLoss, error) {
	return SummarizeContext(context.Background(), src)
}

// SummarizeContext is Summarize under a context.
func SummarizeContext(ctx context.Context, src *Source) (trace.Summary, []RankLoss, error) {
	h := src.Header()
	s := trace.Summary{
		Machine: h.Machine,
		Timer:   h.Timer,
		Procs:   src.Ranks(),
		ByKind:  map[string]int{},
		Regions: map[string]int{},
	}
	// Counted by kind and by region id, the last region slot taking every
	// id the header does not name, and keyed by name once at the end: a
	// string-keyed map update per event cost more than its decode.
	var byKind [256]int
	regions := make([]int, len(h.Regions)+1)
	minT, maxT := 0.0, 0.0
	minTrue, maxTrue := 0.0, 0.0
	first := true
	ticks := 0
	for rank := 0; rank < src.Ranks(); rank++ {
		cur := src.Cursor(rank)
		for {
			if ticks&(ctxCheckEvery-1) == 0 {
				if err := ctx.Err(); err != nil {
					return trace.Summary{}, nil, err
				}
			}
			ticks++
			var ev trace.Event
			if err := cur.Next(&ev); err == io.EOF {
				break
			} else if err != nil {
				return trace.Summary{}, nil, err
			}
			s.Events++
			byKind[uint8(ev.Kind)]++
			if ev.Kind == trace.Enter {
				id := int(ev.Region)
				if id < 0 || id >= len(h.Regions) {
					id = len(h.Regions)
				}
				regions[id]++
			}
			if ev.Kind == trace.Send {
				s.Bytes += int64(ev.Bytes)
			}
			if first {
				minT, maxT = ev.Time, ev.Time
				minTrue, maxTrue = ev.True, ev.True
				first = false
				continue
			}
			if ev.Time < minT {
				minT = ev.Time
			}
			if ev.Time > maxT {
				maxT = ev.Time
			}
			if ev.True < minTrue {
				minTrue = ev.True
			}
			if ev.True > maxTrue {
				maxTrue = ev.True
			}
		}
	}
	for k, n := range byKind {
		if n > 0 {
			s.ByKind[trace.Kind(k).String()] = n
		}
	}
	for id, n := range regions {
		name := "?"
		if id < len(h.Regions) {
			name = h.Regions[id]
		}
		if n > 0 {
			s.Regions[name] += n // two ids may carry one name
		}
	}
	s.SpanTime = maxT - minT
	s.SpanTrue = maxTrue - minTrue
	var loss []RankLoss
	if src.Salvaged() {
		loss = src.Losses()
	}
	return s, loss, nil
}
