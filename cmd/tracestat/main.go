// Command tracestat inspects a trace file: descriptive statistics, the
// clock-condition violation census, and a Late Sender wait-state analysis
// showing how far the measured waiting times deviate from the simulation's
// ground truth — the "false conclusions" the paper warns about. With
// -json it dumps the full trace as JSON instead.
//
// Binary traces stream by default: the summary and census are computed
// in memory bounded by the reorder window. The wait-state, latency, and
// region-profile analyses accumulate floats in an order defined by the
// in-memory trace, so they run on the in-memory path, which -timeline,
// -json and JSON input select.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"tsync/internal/analysis"
	"tsync/internal/exitcode"
	"tsync/internal/fingerprint"
	"tsync/internal/render"
	"tsync/internal/stream"
	"tsync/internal/trace"
)

type options struct {
	in          string
	jsonOut     bool
	timeline    bool
	window      int
	spill       string
	shards      int
	salvage     bool
	maxSkip     int64
	fingerprint bool
	timeout     time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.in, "i", "trace.etr", "input trace file")
	flag.BoolVar(&o.jsonOut, "json", false, "dump the trace as JSON to stdout (in-memory)")
	flag.BoolVar(&o.timeline, "timeline", false, "add the wait-state, latency, and region-profile analyses and a message time-line (in-memory)")
	flag.IntVar(&o.window, "window", 0, "streaming reorder window: max pending items per rank (0 = default 65536)")
	flag.StringVar(&o.spill, "spill", "spill", "streaming window overflow policy: spill or error")
	flag.IntVar(&o.shards, "shards", 0, "streaming merge-tree fan-out: sub-merges feeding the root merge (0 = automatic from the rank count, 1 = flat); results are identical for any value")
	flag.BoolVar(&o.salvage, "salvage", false, "resynchronize past corruption in v2 traces; exits 3 when data was lost")
	flag.Int64Var(&o.maxSkip, "max-skip", 0, "salvage budget: max bytes to skip before giving up (0 = unlimited)")
	flag.BoolVar(&o.fingerprint, "fingerprint", false, "per-rank drift fingerprint: drift rate, jitter, and clock-fault diagnosis (streaming only)")
	flag.DurationVar(&o.timeout, "timeout", 0, "abort the run after this long (0 = no limit)")
	flag.Parse()

	partial, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracestat:", err)
	} else if partial {
		fmt.Fprintln(os.Stderr, "tracestat: output is partial (salvaged from a damaged trace)")
	}
	os.Exit(exitcode.From(err, partial))
}

// withTimeout derives the run context from the -timeout flag.
func withTimeout(o options) (context.Context, context.CancelFunc) {
	if o.timeout > 0 {
		return context.WithTimeout(context.Background(), o.timeout)
	}
	return context.WithCancel(context.Background())
}

func printCensus(c analysis.Census) {
	fmt.Printf("\nclock-condition census (recorded timestamps):\n")
	fmt.Printf("  %d messages, %d reversed (%.2f%%), %d violate t_recv >= t_send + l_min\n",
		c.Messages, c.Reversed, c.PctReversed(), c.ClockCondition)
	fmt.Printf("  %d logical messages from collectives, %d reversed\n",
		c.LogicalMessages, c.ReversedLogical)
}

func run(o options) (bool, error) {
	if o.jsonOut || o.timeline || strings.HasSuffix(o.in, ".json") {
		if o.fingerprint {
			return false, fmt.Errorf("-fingerprint needs the streaming path; it cannot combine with -json, -timeline, or JSON input")
		}
		return false, runInMemory(o)
	}
	return runStreaming(o)
}

func runStreaming(o options) (bool, error) {
	policy, err := stream.ParsePolicy(o.spill)
	if err != nil {
		return false, err
	}
	ctx, cancel := withTimeout(o)
	defer cancel()
	f, err := os.Open(o.in)
	if err != nil {
		return false, err
	}
	defer f.Close()
	src, err := stream.NewSourceOpts(f, stream.SourceOptions{Salvage: o.salvage, MaxSkipBytes: o.maxSkip})
	if err != nil {
		return false, err
	}
	sum, _, err := stream.SummarizeContext(ctx, src)
	if err != nil {
		return false, err
	}
	fmt.Print(sum.String())
	census, stats, err := stream.CensusContext(ctx, src, stream.Options{Window: o.window, Policy: policy, Shards: o.shards})
	if err != nil {
		return false, err
	}
	printCensus(census)
	fmt.Printf("\nstreaming: one merge walk, peak %d pending items on one rank", stats.MaxPending)
	if stats.SpilledEvents > 0 {
		fmt.Printf(", %d insertions spilled past the window during it", stats.SpilledEvents)
	}
	fmt.Println("; run with -timeline for wait-state, latency, and region-profile analyses")
	if o.fingerprint {
		rep, _, err := stream.FingerprintContext(ctx, src, stream.Options{}, fingerprint.Options{})
		if err != nil {
			return false, err
		}
		fmt.Println()
		if err := rep.WriteText(os.Stdout); err != nil {
			return false, err
		}
	}
	if src.Salvaged() {
		return true, stream.WriteLoss(os.Stdout, src.Report(), stats.Loss, src.Procs())
	}
	return false, nil
}

func runInMemory(o options) error {
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
	if o.jsonOut {
		return trace.WriteJSON(os.Stdout, tr)
	}
	fmt.Print(trace.Summarize(tr).String())

	census, err := analysis.CensusOf(tr)
	if err != nil {
		return err
	}
	printCensus(census)

	if prof, err := analysis.ProfileRegions(tr, false); err == nil && len(prof) > 0 {
		fmt.Printf("\nregion profile (recorded timestamps):\n")
		for _, rp := range prof {
			flag := ""
			if rp.Negative > 0 {
				flag = fmt.Sprintf("   <- %d negative durations (clock error!)", rp.Negative)
			}
			fmt.Printf("  %-22q %6d visits, incl %10.1f µs, excl %10.1f µs%s\n",
				rp.Region, rp.Visits, rp.Inclusive*1e6, rp.Exclusive*1e6, flag)
		}
	}

	lat, err := analysis.MessageLatencies(tr, false)
	if err == nil && lat.Stats.N() > 0 {
		fmt.Printf("\napparent one-way latencies (recorded timestamps):\n")
		fmt.Printf("  mean %.2f µs, min %.2f µs, max %.2f µs — %d of %d negative (impossible)\n",
			lat.Stats.Mean()*1e6, lat.Stats.Min()*1e6, lat.Stats.Max()*1e6, lat.Negative, lat.Stats.N())
	}

	measured, err := analysis.LateSender(tr, false)
	if err != nil {
		return err
	}
	oracle, err := analysis.LateSender(tr, true)
	if err != nil {
		return err
	}
	fmt.Printf("\nLate Sender wait states:\n")
	fmt.Printf("  ground truth:  %5d instances, total %.1f µs, max %.2f µs\n",
		oracle.LateSenders, oracle.TotalWait*1e6, oracle.MaxWait*1e6)
	fmt.Printf("  from trace:    %5d instances, total %.1f µs, max %.2f µs\n",
		measured.LateSenders, measured.TotalWait*1e6, measured.MaxWait*1e6)
	if oracle.TotalWait > 0 {
		errPct := 100 * (measured.TotalWait - oracle.TotalWait) / oracle.TotalWait
		fmt.Printf("  quantification error from timestamp inaccuracy: %+.1f%%\n", errPct)
	}

	if o.timeline {
		s := trace.Summarize(tr)
		// render the window around the first recorded event span
		var t0 float64
		found := false
		for _, p := range tr.Procs {
			if len(p.Events) > 0 && (!found || p.Events[0].True < t0) {
				t0 = p.Events[0].True
				found = true
			}
		}
		if found {
			out, err := render.MessageTimeline(tr, t0, t0+s.SpanTrue+1e-9, 100)
			if err != nil {
				fmt.Printf("\n(no message time-line: %v)\n", err)
			} else {
				fmt.Printf("\n%s", out)
			}
		}
	}
	return nil
}
