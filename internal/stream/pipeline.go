package stream

import (
	"context"
	"fmt"
	"io"
	"math"

	"tsync/internal/analysis"
	"tsync/internal/clc"
	"tsync/internal/core"
	"tsync/internal/fingerprint"
	"tsync/internal/interp"
	"tsync/internal/measure"
	"tsync/internal/trace"
)

// Pipeline is the streaming counterpart of core.Pipeline: the same base
// correction and CLC stages, run over an indexed trace file in bounded
// memory. Its censuses, CLC report, distortion figures, and output trace
// bytes are bit-identical to the in-memory path; the differential tests
// in this package enforce that.
type Pipeline struct {
	// Base selects the base correction. The error-estimation bases need
	// the full trace in memory and return ErrUnsupported.
	Base core.Base
	// Correction, when non-nil, overrides Base with a prebuilt
	// piecewise correction — cmd/tracesync -autoknots builds one from a
	// fingerprint report so the interpolation knots land on detected
	// clock breaks.
	Correction *interp.Correction
	// CLC enables the controlled logical clock stage.
	CLC bool
	// CLCOptions tunes the CLC stage; zero value selects defaults.
	// SharedMemory and Domains need the in-memory path.
	CLCOptions clc.Options
	// Fingerprint, when non-nil, tees the first walk into a per-rank
	// drift fingerprint tracker (internal/fingerprint) and fills
	// Result.Fingerprint. The stage observes raw timestamps only: every
	// other output stays bit-identical to a run without it.
	Fingerprint *fingerprint.Options
	// Options tune the streaming engine itself.
	Options Options
}

// Result mirrors core.Result without the materialized trace.
type Result struct {
	Before, After analysis.Census
	CLCReport     clc.Report
	Distortion    analysis.Distortion
	// Fingerprint holds the per-rank drift report when the fingerprint
	// stage was enabled (nil otherwise).
	Fingerprint *fingerprint.Report
	Stats       Stats
}

// baseMapper builds the base-correction time mapper, or ErrUnsupported
// for bases that need the full trace. A prebuilt Correction takes
// precedence over Base.
func (p Pipeline) baseMapper(init, fin []measure.Offset) (timeMapper, error) {
	if p.Correction != nil {
		return newCorrMapper(p.Correction), nil
	}
	switch p.Base {
	case core.BaseNone, "":
		return identityMapper{}, nil
	case core.BaseAlign:
		corr, err := interp.AlignOnly(init)
		if err != nil {
			return nil, err
		}
		return newCorrMapper(corr), nil
	case core.BaseInterp:
		corr, err := interp.Linear(init, fin)
		if err != nil {
			return nil, err
		}
		return newCorrMapper(corr), nil
	case core.BaseRegression, core.BaseConvexHull, core.BaseMinMax:
		return nil, fmt.Errorf("%w: base %q fits pairwise maps over the full trace", ErrUnsupported, p.Base)
	}
	return nil, fmt.Errorf("stream: unknown base correction %q", p.Base)
}

// Run executes the pipeline over src, writing the corrected trace to out
// unless out is nil (analysis only). The offset tables serve BaseAlign
// (init) and BaseInterp (both), exactly as in core.Pipeline.Run.
func (p Pipeline) Run(src *Source, out io.Writer, init, fin []measure.Offset) (*Result, error) {
	return p.RunContext(context.Background(), src, out, init, fin)
}

// RunContext is Run under a context: cancellation surfaces (as
// ctx.Err()) within about one slab's worth of work, the decode
// goroutines are released before it returns, and the deferred spill
// teardown closes and removes every temp file even on that path. It is
// sugar for running a one-shot Session; long-lived callers that need to
// observe or abort the run from outside construct the Session directly.
func (p Pipeline) RunContext(ctx context.Context, src *Source, out io.Writer, init, fin []measure.Offset) (*Result, error) {
	return NewSession(p, src).Run(ctx, out, init, fin)
}

// runContext is the pipeline body shared by every entry path; Session
// owns the lifecycle around it.
func (p Pipeline) runContext(ctx context.Context, src *Source, out io.Writer, init, fin []measure.Offset) (*Result, error) {
	mapper, err := p.baseMapper(init, fin)
	if err != nil {
		return nil, err
	}
	opts := p.CLCOptions
	if opts.Gamma == 0 {
		opts = clc.DefaultOptions()
	}
	if p.CLC {
		if opts.SharedMemory {
			return nil, fmt.Errorf("%w: shared-memory CLC", ErrUnsupported)
		}
		if len(opts.Domains) > 0 {
			return nil, fmt.Errorf("%w: clock domains", ErrUnsupported)
		}
		if err := opts.Validate(); err != nil {
			return nil, err
		}
	}

	res := &Result{}
	acct := begin(src, p.Options, &res.Stats)
	first := &censusSink{gamma: opts.Gamma}
	// The fingerprint stage tees into the first walk as a pure
	// observer; its EdgeData is discarded (the tee keeps the b side's).
	var fpTracker *fingerprint.Tracker
	firstSink := sink(first)
	if p.Fingerprint != nil {
		fpTracker = fingerprint.NewTracker(src.Ranks(), *p.Fingerprint)
		firstSink = teeSink{a: &fingerprintSink{tr: fpTracker}, b: first}
	}
	var spills *spillSet

	if p.CLC {
		spills, err = newSpillSet(src.Ranks(), acct.opt.SpillFS)
		if err != nil {
			return nil, err
		}
		defer spills.Close()
		clcS, err := newCLCSink(src.Ranks(), opts, acct, &res.CLCReport, spills, src.lmin)
		if err != nil {
			return nil, err
		}
		if err := walk(ctx, src, mapper, teeSink{a: firstSink, b: clcS}, acct); err != nil {
			return nil, err
		}
		res.CLCReport.ViolationsBefore = first.violations
		res.CLCReport.ViolationsAfter = clcS.violations
		res.Before = first.raw
		// The same walk took the After census: clcS judged every edge as
		// its corrected times settled. Event totals are Before's.
		res.After = clcS.after
		res.After.TotalEvents, res.After.MessageEvents = first.raw.TotalEvents, first.raw.MessageEvents
	} else {
		if err := walk(ctx, src, mapper, firstSink, acct); err != nil {
			return nil, err
		}
		res.Before = first.raw
		res.After = first.mapped
	}
	if fpTracker != nil {
		res.Fingerprint = fpTracker.Report()
	}

	// The final sweep runs under the job's final timestamps: the base
	// mapper, or the spilled CLC times, read once, front to back.
	final := mapper
	if spills != nil {
		final = spills.mapper()
	}
	res.Distortion, err = assembleMeasure(ctx, src, final, out, acct.opt)
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Census scans src's raw timestamps in one streaming pass, matching
// analysis.CensusOf on the materialized trace bit for bit.
func Census(src *Source, opt Options) (analysis.Census, Stats, error) {
	return CensusContext(context.Background(), src, opt)
}

// CensusContext is Census under a context.
func CensusContext(ctx context.Context, src *Source, opt Options) (analysis.Census, Stats, error) {
	var stats Stats
	acct := begin(src, opt, &stats)
	s := &censusSink{gamma: clc.DefaultOptions().Gamma}
	if err := walk(ctx, src, identityMapper{}, s, acct); err != nil {
		return analysis.Census{}, stats, err
	}
	return s.raw, stats, nil
}

// encMsg is one unit of the encode stage's input: a process header
// opening a rank's block, or a slab of already-mapped events to append
// to it.
type encMsg struct {
	ph *trace.ProcHeader
	s  *slab
}

// encodeStage is the pipeline's encode stage: it owns the EventWriter,
// consuming headers and slabs in arrival order (one bounded channel, so
// rank order is preserved) while the producer decodes and maps the next
// slab. After a failure it keeps draining — recycling slabs — so the
// producer never blocks, and reports the first error on res. A nil ew
// (a sweep that only measures) makes it the slab recycler and no more.
func encodeStage(ew *trace.EventWriter, pool *slabPool, in <-chan encMsg, res chan<- error) {
	var err error
	for msg := range in {
		if msg.s == nil {
			if ew != nil && err == nil {
				err = ew.BeginProc(*msg.ph)
			}
			continue
		}
		if ew != nil && err == nil {
			for i := range msg.s.evs {
				if werr := ew.Write(&msg.s.evs[i]); werr != nil {
					err = werr
					break
				}
			}
		}
		pool.put(msg.s)
	}
	if ew != nil && err == nil {
		err = ew.Close()
	}
	res <- err
}

// assembleMeasure is the final pass of every job that maps timestamps:
// three overlapped stages over one rank-major decode. A decodeRank stage
// fills slabs ahead; this goroutine maps their timestamps in place and
// measures the distortion; the encode stage, unless out is nil, writes
// them. The sweep replicates analysis.DistortionBetween over (raw,
// mapped) pairs in the in-memory traversal order on this one goroutine,
// so every bit of MeanAbs matches, and the encoder is the one trace.Write
// uses, so the output bytes do too.
func assembleMeasure(ctx context.Context, src *Source, m timeMapper, out io.Writer, opt Options) (analysis.Distortion, error) {
	var d analysis.Distortion
	var ew *trace.EventWriter
	if out != nil {
		var err error
		if ew, err = trace.NewEventWriter(out, src.Header()); err != nil {
			return d, err
		}
	}
	pool := newSlabPool(opt.Batch)
	// stop releases the decode stage if the sweep ends before draining it
	stop := make(chan struct{})
	defer close(stop)
	in := make(chan encMsg, 1)
	res := make(chan error, 1)
	go encodeStage(ew, pool, in, res)
	finish := func(err error) (analysis.Distortion, error) {
		close(in)
		if werr := <-res; err == nil {
			err = werr
		}
		return d, err
	}
	var sum float64
	for rank := 0; rank < src.Ranks(); rank++ {
		ph := src.Procs()[rank]
		in <- encMsg{ph: &ph}
		dec := src.slabCursor(rank, pool, stop).ch
		var prevRaw, prevFin float64
		for idx := 0; idx < ph.EventCount; {
			if cerr := ctx.Err(); cerr != nil {
				return finish(cerr)
			}
			msg, ok := <-dec
			if !ok {
				return finish(io.ErrUnexpectedEOF)
			}
			s := msg.s
			if msg.err != nil {
				pool.put(s)
				return finish(msg.err)
			}
			for i := range s.evs {
				ev := &s.evs[i]
				ft, merr := m.mapTime(rank, idx, ev)
				if merr != nil {
					pool.put(s)
					return finish(merr)
				}
				if idx > 0 {
					origIv := ev.Time - prevRaw
					corrIv := ft - prevFin
					delta := corrIv - origIv
					if math.Abs(delta) > d.MaxAbs {
						d.MaxAbs = math.Abs(delta)
					}
					if corrIv < origIv {
						d.Shrunk++
					}
					sum += math.Abs(delta)
					d.N++
				}
				prevRaw, prevFin = ev.Time, ft
				ev.SetTime(ft)
				idx++
			}
			in <- encMsg{s: s}
		}
	}
	d2, err := finish(nil)
	if err != nil {
		return d2, err
	}
	if d2.N > 0 {
		d2.MeanAbs = sum / float64(d2.N)
	}
	return d2, nil
}
