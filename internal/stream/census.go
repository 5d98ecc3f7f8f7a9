package stream

import (
	"tsync/internal/analysis"
	"tsync/internal/clc"
	"tsync/internal/trace"
)

// censusSink accumulates two analysis.Census records in one walk — one
// over the tail/head Raw timestamps, one over the Mapped ones — plus the
// γ-scaled violation count clc.Correct would report on the mapped trace.
// All its quantities are sums, counts, or maxima over edges and events,
// so they do not depend on the processing order and match the in-memory
// analysis bit for bit.
type censusSink struct {
	gamma      float64
	raw        analysis.Census
	mapped     analysis.Census
	violations int
}

func (s *censusSink) event(rank, idx int, ev *trace.Event, mapped float64, in []InEdge) (EdgeData, error) {
	s.raw.TotalEvents++
	s.mapped.TotalEvents++
	if ev.Kind == trace.Send || ev.Kind == trace.Recv {
		s.raw.MessageEvents++
		s.mapped.MessageEvents++
	}
	for _, e := range in {
		countEdge(&s.raw, e.Data.Raw, ev.Time, e.LMin, e.Logical)
		countEdge(&s.mapped, e.Data.Mapped, mapped, e.LMin, e.Logical)
		if clc.Violated(e.Data.Mapped, mapped, e.LMin, s.gamma) {
			s.violations++
		}
	}
	return EdgeData{Raw: ev.Time, Mapped: mapped}, nil
}

// countEdge adds one happened-before edge, tail before head, to c.
func countEdge(c *analysis.Census, tail, head, lmin float64, logical bool) {
	if logical {
		c.LogicalMessages++
		if head < tail {
			c.ReversedLogical++
		}
		return
	}
	c.Messages++
	if head < tail {
		c.Reversed++
	}
	if head < tail+lmin {
		c.ClockCondition++
	}
}

func (s *censusSink) final(EventRef) error { return nil }
func (s *censusSink) rankDone(int) error   { return nil }
func (s *censusSink) flush() error         { return nil }
