// Command tracesync applies postmortem timestamp synchronization to a
// trace file produced by tracegen: a base correction (offset alignment,
// linear interpolation, or an error-estimation method) optionally followed
// by the controlled logical clock, reporting clock-condition violations
// before and after. With -all it compares every method side by side.
//
// Binary traces stream by default: events are decoded incrementally and
// the corrections run online in memory bounded by the reorder window, not
// the trace length. JSON traces, -all, the error-estimation bases, and
// CLC variants the streaming engine does not support take the in-memory
// path by themselves.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"tsync/internal/analysis"
	"tsync/internal/clc"
	"tsync/internal/core"
	"tsync/internal/exitcode"
	"tsync/internal/experiments"
	"tsync/internal/fingerprint"
	"tsync/internal/measure"
	"tsync/internal/prof"
	"tsync/internal/render"
	"tsync/internal/stream"
	"tsync/internal/trace"
)

type sidecar struct {
	Init []measure.Offset `json:"init"`
	Fin  []measure.Offset `json:"fin"`
}

type options struct {
	in, out, base string
	withCLC       bool
	all           bool
	window        int
	shards        int
	spill         string
	workers       int
	salvage       bool
	maxSkip       int64
	fingerprint   bool
	autoknots     bool
	timeout       time.Duration
	cpuprofile    string
	memprofile    string
}

func main() {
	var o options
	flag.StringVar(&o.in, "i", "trace.etr", "input trace file")
	flag.StringVar(&o.out, "o", "", "write the corrected trace here (optional)")
	flag.StringVar(&o.base, "base", "interp", "base correction: none, align, interp, duda-regression, duda-convex-hull, hofmann-minmax")
	flag.BoolVar(&o.withCLC, "clc", true, "apply the controlled logical clock after the base correction")
	flag.BoolVar(&o.all, "all", false, "compare all correction methods instead (in-memory)")
	flag.IntVar(&o.window, "window", 0, "streaming reorder window: max pending items per rank (0 = default 65536)")
	flag.IntVar(&o.shards, "shards", 0, "streaming merge-tree fan-out: sub-merges feeding the root merge (0 = automatic from the rank count, 1 = flat); output is identical for any value")
	flag.StringVar(&o.spill, "spill", "spill", "streaming window overflow policy: spill (unbounded, recorded) or error (fail fast)")
	flag.IntVar(&o.workers, "workers", 0, "parallel worker bound for -all (0 = all CPUs); results are identical for any value")
	flag.BoolVar(&o.salvage, "salvage", false, "resynchronize past corruption in v2 traces (streaming only); exits 3 when data was lost")
	flag.Int64Var(&o.maxSkip, "max-skip", 0, "salvage budget: max bytes to skip before giving up (0 = unlimited)")
	flag.BoolVar(&o.fingerprint, "fingerprint", false, "print the per-rank drift fingerprint alongside the correction report (streaming only)")
	flag.BoolVar(&o.autoknots, "autoknots", false, "replace -base with a piecewise correction whose knots sit at fingerprint-detected clock breaks (streaming only)")
	flag.DurationVar(&o.timeout, "timeout", 0, "abort the run after this long (0 = no limit)")
	flag.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile (runtime/pprof) to this file")
	flag.StringVar(&o.memprofile, "memprofile", "", "write an allocation profile to this file after the run")
	flag.Parse()

	stop, err := prof.Start(o.cpuprofile, o.memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracesync:", err)
		os.Exit(1)
	}
	partial, err := run(o)
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracesync:", err)
	} else if partial {
		fmt.Fprintln(os.Stderr, "tracesync: output is partial (salvaged from a damaged trace)")
	}
	os.Exit(exitcode.From(err, partial))
}

func loadSidecar(in string) (sidecar, bool, error) {
	var side sidecar
	blob, err := os.ReadFile(in + ".offsets.json")
	if err != nil {
		return side, false, nil
	}
	if err := json.Unmarshal(blob, &side); err != nil {
		return side, false, fmt.Errorf("offset sidecar: %w", err)
	}
	return side, true, nil
}

func printCensus(label string, c analysis.Census) {
	fmt.Printf("%-8s %6d messages, %5d reversed (%.2f%%), %5d clock-condition violations (incl. %d logical reversed)\n",
		label, c.Messages, c.Reversed, c.PctReversed(), c.ClockCondition, c.ReversedLogical)
}

func printReport(before, after analysis.Census, rep clc.Report, dist analysis.Distortion, withCLC bool) {
	printCensus("before:", before)
	printCensus("after:", after)
	if withCLC {
		fmt.Printf("\nCLC: %d -> %d violations (γ-scaled), %d events moved, max advance %s µs\n",
			rep.ViolationsBefore, rep.ViolationsAfter, rep.EventsMoved, render.Micro(rep.MaxAdvance))
	}
	fmt.Printf("interval distortion: max %s µs, mean %s µs, %d of %d intervals shrunk\n",
		render.Micro(dist.MaxAbs), render.Micro(dist.MeanAbs), dist.Shrunk, dist.N)
}

func run(o options) (bool, error) {
	side, haveOffsets, err := loadSidecar(o.in)
	if err != nil {
		return false, err
	}
	needsOffsets := o.all || o.base == "align" || o.base == "interp"
	if needsOffsets && !haveOffsets {
		return false, fmt.Errorf("no %s.offsets.json sidecar: alignment/interpolation need the offset tables (generate traces with tracegen, or use -base none/duda-*/hofmann-minmax)", o.in)
	}

	if !o.all && !strings.HasSuffix(o.in, ".json") {
		partial, err := runStreaming(o, side)
		if err == nil || !errors.Is(err, stream.ErrUnsupported) {
			return partial, err
		}
		fmt.Fprintf(os.Stderr, "tracesync: falling back to the in-memory path: %v\n", err)
	}
	if o.salvage {
		return false, errors.New("-salvage needs the streaming path; it cannot combine with -all, JSON input, or an in-memory-only -base")
	}
	if o.fingerprint || o.autoknots {
		return false, errors.New("-fingerprint and -autoknots need the streaming path; they cannot combine with -all, JSON input, or an in-memory-only -base")
	}
	return false, runInMemory(o, side)
}

func runStreaming(o options, side sidecar) (bool, error) {
	b, err := core.ParseBase(o.base)
	if err != nil {
		return false, err
	}
	policy, err := stream.ParsePolicy(o.spill)
	if err != nil {
		return false, err
	}
	ctx := context.Background()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	f, err := os.Open(o.in)
	if err != nil {
		return false, err
	}
	defer f.Close()
	src, err := stream.NewSourceOpts(f, stream.SourceOptions{Salvage: o.salvage, MaxSkipBytes: o.maxSkip})
	if err != nil {
		return false, err
	}
	p := stream.Pipeline{
		Base: b, CLC: o.withCLC,
		Options: stream.Options{Window: o.window, Policy: policy, Shards: o.shards},
	}
	if o.fingerprint {
		p.Fingerprint = &fingerprint.Options{}
	}
	if o.autoknots {
		// A fingerprint pre-pass places the interpolation knots at the
		// detected clock breaks; the resulting piecewise correction
		// replaces the -base mapping.
		rep, _, err := stream.FingerprintContext(ctx, src, p.Options, fingerprint.Options{})
		if err != nil {
			return false, err
		}
		corr, degraded, err := rep.AutoCorrection()
		if err != nil {
			return false, err
		}
		p.Correction = corr
		knots := 0
		for r := 0; r < src.Ranks(); r++ {
			knots += len(rep.Knots(r))
		}
		fmt.Printf("autoknots: %d breaks diagnosed, %d knots placed (replacing -base %s)\n", rep.Breaks(), knots, o.base)
		if len(degraded) > 0 {
			fmt.Printf("autoknots: ranks %v degraded to a single affine piece (clock resets rewind local time)\n", degraded)
		}
	}
	var outW *os.File
	if o.out != "" {
		if outW, err = os.Create(partialName(o.out)); err != nil {
			return false, err
		}
	}
	res, err := p.RunContext(ctx, src, writerOrNil(outW), side.Init, side.Fin)
	if outW != nil {
		err = finishOutput(outW, o.out, err)
	}
	if err != nil {
		return false, err
	}
	h := src.Header()
	window := o.window
	if window <= 0 {
		window = stream.DefaultWindow
	}
	fmt.Printf("trace: %s on %s with %s timer, %d events (streaming, window %d, policy %s)\n\n",
		o.in, h.Machine, h.Timer, res.Stats.Events, window, policy)
	printReport(res.Before, res.After, res.CLCReport, res.Distortion, o.withCLC)
	fmt.Printf("streaming: one merge walk, peak %d pending items on one rank", res.Stats.MaxPending)
	if res.Stats.SpilledEvents > 0 {
		fmt.Printf(", %d insertions spilled past the window during it", res.Stats.SpilledEvents)
	}
	fmt.Println()
	if res.Fingerprint != nil {
		fmt.Println()
		if err := res.Fingerprint.WriteText(os.Stdout); err != nil {
			return false, err
		}
	}
	if o.out != "" {
		fmt.Printf("corrected trace written to %s\n", o.out)
	}
	if src.Salvaged() {
		return true, stream.WriteLoss(os.Stdout, src.Report(), res.Stats.Loss, src.Procs())
	}
	return false, nil
}

// partialName is where a run writes the trace that becomes path once it
// is whole: the same directory, so the final rename cannot cross a file
// system.
func partialName(path string) string { return path + ".partial" }

// finishOutput closes the partial output of a run that ended with err
// and, when both went well, renames it to path. Otherwise it removes it:
// a failed run (window exceeded, an unmatched send, a timeout, damage a
// later pass found in the input) must not leave something at -o that
// looks like a result.
func finishOutput(partial *os.File, path string, err error) error {
	if cerr := partial.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(partial.Name(), path)
	}
	if err != nil {
		_ = os.Remove(partial.Name()) // the run's error is the one to report
	}
	return err
}

// writerOrNil keeps the nil check on the interface value honest: a nil
// *os.File inside a non-nil io.Writer interface would defeat the
// "out == nil means analysis only" contract.
func writerOrNil(f *os.File) io.Writer {
	if f == nil {
		return nil
	}
	return f
}

func runInMemory(o options, side sidecar) error {
	f, err := os.Open(o.in)
	if err != nil {
		return err
	}
	var tr *trace.Trace
	if strings.HasSuffix(o.in, ".json") {
		tr, err = trace.ReadJSON(f)
	} else {
		tr, err = trace.Read(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}

	if o.all {
		rows, err := experiments.CompareCorrections(tr, side.Init, side.Fin, o.workers)
		if err != nil {
			return err
		}
		var cells [][]string
		for _, r := range rows {
			if r.Err != nil {
				cells = append(cells, []string{r.Method, "error: " + r.Err.Error(), "", ""})
				continue
			}
			cells = append(cells, []string{
				r.Method,
				fmt.Sprintf("%d", r.Violations),
				render.Micro(r.Distortion.MaxAbs),
				render.Micro(r.Distortion.MeanAbs),
			})
		}
		fmt.Print(render.Table(
			[]string{"method", "violations left", "max |Δinterval| µs", "mean |Δinterval| µs"},
			cells))
		return nil
	}

	b, err := core.ParseBase(o.base)
	if err != nil {
		return err
	}
	res, err := (core.Pipeline{Base: b, CLC: o.withCLC, Parallel: true}).Run(tr, side.Init, side.Fin)
	if err != nil {
		return err
	}
	fmt.Printf("trace: %s on %s with %s timer, %d events\n\n", o.in, tr.Machine, tr.Timer, tr.EventCount())
	printReport(res.Before, res.After, res.CLCReport, res.Distortion, o.withCLC)

	if o.out != "" {
		g, err := os.Create(partialName(o.out))
		if err != nil {
			return err
		}
		_, err = trace.Write(g, res.Trace)
		if err = finishOutput(g, o.out, err); err != nil {
			return err
		}
		fmt.Printf("corrected trace written to %s\n", o.out)
	}
	return nil
}
