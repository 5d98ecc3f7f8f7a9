// Command tracereplay re-executes a synced trace under seeded
// causally-consistent interleavings drawn from the RepCl-feasible
// order set (DESIGN.md §11) and checks the invariants a sound
// timestamp correction must preserve: happened-before edges are never
// inverted, message sends precede receives, collectives complete
// atomically per communicator, per-rank program order survives, and
// the summary checksum is bit-identical to the canonical order's.
//
// The RepCl stamping pass itself streams in bounded memory
// (stream.ReplayStamp); the interleaving re-execution needs the
// event graph in memory. Salvaged (v2, -salvage) traces replay in
// tolerant mode: severed ranks degrade to a reported partial replay
// and the process exits with status 3, like the other CLIs.
//
// With -score it replays under every correction the repository
// produces (none, align, interp, errest-minmax, interp+clc,
// autoknots) and reports each one's violation counts and feasible-
// interleaving breadth — the consumer-side counterpart of
// tracebench's CompareCorrections ablation. Scoring needs the
// <input>.offsets.json sidecar written by tracegen.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"tsync/internal/exitcode"
	"tsync/internal/interp"
	"tsync/internal/lclock"
	"tsync/internal/measure"
	"tsync/internal/replay"
	"tsync/internal/stream"
	"tsync/internal/trace"
)

type sidecar struct {
	Init []measure.Offset `json:"init"`
	Fin  []measure.Offset `json:"fin"`
}

type options struct {
	in       string
	seeds    int
	seed     uint64
	workers  int
	eps      uint
	interval float64
	base     string
	score    bool
	salvage  bool
	maxSkip  int64
	jsonOut  bool
	timeout  time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.in, "i", "trace.etr", "input trace file")
	flag.IntVar(&o.seeds, "seeds", 3, "number of seeded interleavings to replay")
	flag.Uint64Var(&o.seed, "seed", 1, "base seed; replay seeds derive from it")
	flag.IntVar(&o.workers, "workers", 0, "worker pool bound for the replays (0 = all CPUs; results identical for any value)")
	flag.UintVar(&o.eps, "eps", 0, "RepCl skew bound in epochs (0 = default 4)")
	flag.Float64Var(&o.interval, "interval", 0, "RepCl epoch length in seconds (0 = default 1 ms)")
	flag.StringVar(&o.base, "base", "interp", "correction replayed under: none, align, or interp (needs the offsets sidecar except for none)")
	flag.BoolVar(&o.score, "score", false, "replay under every correction and print the scoring table")
	flag.BoolVar(&o.salvage, "salvage", false, "resynchronize past corruption in v2 traces; exits 3 when the replay is partial")
	flag.Int64Var(&o.maxSkip, "max-skip", 0, "salvage budget: max bytes to skip before giving up (0 = unlimited)")
	flag.BoolVar(&o.jsonOut, "json", false, "print results as JSON")
	flag.DurationVar(&o.timeout, "timeout", 0, "abort the run after this long (0 = no limit)")
	flag.Parse()

	partial, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracereplay:", err)
	} else if partial {
		fmt.Fprintln(os.Stderr, "tracereplay: replay is partial (salvaged from a damaged trace)")
	}
	os.Exit(exitcode.From(err, partial))
}

func withTimeout(o options) (context.Context, context.CancelFunc) {
	if o.timeout > 0 {
		return context.WithTimeout(context.Background(), o.timeout)
	}
	return context.WithCancel(context.Background())
}

// loadTrace materializes the source's events into an in-memory trace
// (the interleaving scheduler needs random access to the graph).
func loadTrace(ctx context.Context, src *stream.Source) (*trace.Trace, error) {
	h := src.Header()
	t := &trace.Trace{Machine: h.Machine, Timer: h.Timer, MinLatency: h.MinLatency, Regions: h.Regions}
	for rank, ph := range src.Procs() {
		p := trace.Proc{Rank: ph.Rank, Core: ph.Core, Clock: ph.Clock}
		p.Events = make([]trace.Event, 0, ph.EventCount)
		cur := src.Cursor(rank)
		var ev trace.Event
		for i := 0; i < ph.EventCount; i++ {
			if i&1023 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			if err := cur.Next(&ev); err != nil {
				return nil, err
			}
			p.Events = append(p.Events, ev)
		}
		t.Procs = append(t.Procs, p)
	}
	return t, nil
}

func run(o options) (partial bool, err error) {
	ctx, cancel := withTimeout(o)
	defer cancel()

	f, err := os.Open(o.in)
	if err != nil {
		return false, err
	}
	defer f.Close()
	src, err := stream.NewSourceContext(ctx, f, stream.SourceOptions{Salvage: o.salvage, MaxSkipBytes: o.maxSkip})
	if err != nil {
		return false, err
	}

	cfg := lclock.RepClConfig{Interval: o.interval, Epsilon: uint32(o.eps)}.Normalize()
	partial = o.salvage && src.Salvaged()

	var side sidecar
	haveOffsets := false
	if blob, rerr := os.ReadFile(o.in + ".offsets.json"); rerr == nil {
		if err := json.Unmarshal(blob, &side); err != nil {
			return false, fmt.Errorf("offset sidecar: %w", err)
		}
		haveOffsets = true
	}

	// the bounded-memory stamping pass: correction-mapped timestamps in,
	// per-rank RepCl digests and ε-skew counts out
	corr, err := baseCorrection(o.base, side, haveOffsets, src.Ranks())
	if err != nil {
		return false, err
	}
	stamp, err := stream.ReplayStampContext(ctx, src, corr, cfg, stream.Options{})
	if err != nil {
		return false, err
	}

	t, err := loadTrace(ctx, src)
	if err != nil {
		return false, err
	}

	ropt := replay.Options{Clock: cfg, Tolerant: o.salvage && src.Salvaged()}

	if o.score {
		if !haveOffsets {
			return false, fmt.Errorf("no %s.offsets.json sidecar: -score needs the offset tables", o.in)
		}
		// scoring builds each method's correction itself, so it starts
		// from the raw (uncorrected) trace
		scores, err := replay.Score(t, side.Init, side.Fin, replay.ScoreConfig{
			Options: ropt, Seeds: replay.Seeds(o.seed, o.seeds), Workers: o.workers,
		})
		if err != nil {
			return false, err
		}
		printScores(o, stamp, scores)
		return partial, nil
	}

	if corr != nil {
		t = corr.Apply(t)
	}
	eng, err := replay.New(t, ropt)
	if err != nil {
		return false, err
	}
	canon, err := eng.Canonical()
	if err != nil {
		return false, err
	}
	reps, err := eng.ReplaySeeds(replay.Seeds(o.seed, o.seeds), o.workers)
	if err != nil {
		return false, err
	}
	printReplays(o, stamp, canon, reps)
	for _, r := range reps {
		if r.Checksum != canon.Checksum {
			return false, fmt.Errorf("interleaving checksum %s diverged from canonical %s (seed %d)", r.Checksum, canon.Checksum, r.Seed)
		}
		if r.Partial {
			partial = true
		}
	}
	if canon.Partial {
		partial = true
	}
	return partial, nil
}

// baseCorrection builds the correction the replay trusts. Scoring mode
// rebuilds its own per-method corrections; this one only shapes the
// stamping pass and the default replay.
func baseCorrection(base string, side sidecar, have bool, ranks int) (*interp.Correction, error) {
	switch base {
	case "none":
		return nil, nil
	case "align":
		if !have {
			return nil, fmt.Errorf("-base align needs the offsets sidecar")
		}
		return interp.AlignOnly(side.Init)
	case "interp":
		if !have {
			// traces without a sidecar replay uncorrected rather than
			// failing: the census then reports what raw clocks commit
			return nil, nil
		}
		return interp.Linear(side.Init, side.Fin)
	}
	return nil, fmt.Errorf("unknown -base %q (none, align, interp)", base)
}

func printCounts(c replay.Counts) string {
	return fmt.Sprintf("%d violations (%d message, %d collective, %d program-order, %d ε-skew)",
		c.Total(), c.MessageOrder, c.Collective, c.ProgramOrder, c.EpochSkew)
}

func printReplays(o options, stamp stream.ReplayStats, canon *replay.Result, reps []*replay.Result) {
	if o.jsonOut {
		out := struct {
			Stamp     stream.ReplayStats `json:"stamp"`
			Canonical *replay.Result     `json:"canonical"`
			Replays   []*replay.Result   `json:"replays"`
		}{stamp, canon, reps}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		enc.Encode(out)
		return
	}
	fmt.Printf("stamped %d events: max epoch %d, %d ε-skew clamps, stamp digest %s\n",
		stamp.Events, stamp.MaxEpoch, stamp.EpochSkew, stamp.Checksum)
	fmt.Printf("canonical order: %s, checksum %s\n", printCounts(canon.Counts), canon.Checksum)
	for _, r := range reps {
		fmt.Printf("seed %-20d breadth %9.1f bits, %s, checksum %s\n",
			r.Seed, r.Breadth, printCounts(r.Counts), r.Checksum)
	}
	if canon.DroppedEdges > 0 {
		fmt.Printf("tolerant replay dropped %d edges severed by corruption\n", canon.DroppedEdges)
	}
}

func printScores(o options, stamp stream.ReplayStats, scores []replay.MethodScore) {
	if o.jsonOut {
		out := struct {
			Stamp  stream.ReplayStats   `json:"stamp"`
			Scores []replay.MethodScore `json:"scores"`
		}{stamp, scores}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		enc.Encode(out)
		return
	}
	fmt.Printf("stamped %d events: max epoch %d, stamp digest %s\n", stamp.Events, stamp.MaxEpoch, stamp.Checksum)
	fmt.Printf("%-14s %10s %8s %11s %13s %8s %12s\n",
		"method", "violations", "message", "collective", "program-order", "ε-skew", "breadth/bits")
	for _, s := range scores {
		if s.Err != nil {
			fmt.Printf("%-14s failed: %v\n", s.Method, s.Err)
			continue
		}
		c := s.Counts
		fmt.Printf("%-14s %10d %8d %11d %13d %8d %12.1f\n",
			s.Method, c.Total(), c.MessageOrder, c.Collective, c.ProgramOrder, c.EpochSkew, s.Breadth)
	}
}
