// Command tsyncctl runs one trace-sync session against a tsyncd server:
// it uploads a trace, waits for the correction to run remotely, prints
// the same violation report cmd/tracesync prints, and (with -o) writes
// the corrected trace — bytes bit-identical to the one-shot CLI on the
// same input, verified against the server's FNV checksum on the way.
//
// Connection failures and busy/queue-timeout rejections retry under
// seeded exponential backoff (-seed, -attempts); classified session
// errors are final.
//
// Exit status follows the repository's CLI contract: 0 clean, 1 error,
// 3 when the result is partial (salvaged from a damaged trace) — even
// though the partial verdict here arrives over the wire.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"tsync/internal/exitcode"
	"tsync/internal/measure"
	"tsync/internal/render"
	"tsync/internal/tsyncd"
)

type sidecar struct {
	Init []measure.Offset `json:"init"`
	Fin  []measure.Offset `json:"fin"`
}

type options struct {
	addr     string
	in, out  string
	tenant   string
	base     string
	withCLC  bool
	window   int
	spill    string
	salvage  bool
	maxSkip  int64
	seed     uint64
	attempts int
	timeout  time.Duration
	jsonOut  bool
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:7474", "tsyncd server address")
	flag.StringVar(&o.in, "i", "trace.etr", "input trace file")
	flag.StringVar(&o.out, "o", "", "write the corrected trace here (optional)")
	flag.StringVar(&o.tenant, "tenant", "", "tenant name for server-side quota accounting")
	flag.StringVar(&o.base, "base", "interp", "base correction: none, align, interp")
	flag.BoolVar(&o.withCLC, "clc", true, "apply the controlled logical clock after the base correction")
	flag.IntVar(&o.window, "window", 0, "streaming reorder window (0 = server default)")
	flag.StringVar(&o.spill, "spill", "spill", "window overflow policy: spill or error")
	flag.BoolVar(&o.salvage, "salvage", false, "resynchronize past corruption in v2 traces; exits 3 when data was lost")
	flag.Int64Var(&o.maxSkip, "max-skip", 0, "salvage budget: max bytes to skip before giving up (0 = unlimited)")
	flag.Uint64Var(&o.seed, "seed", 1, "backoff jitter seed for reconnect attempts")
	flag.IntVar(&o.attempts, "attempts", 5, "total connection attempts before giving up")
	flag.DurationVar(&o.timeout, "timeout", 30*time.Second, "per-frame wire timeout")
	flag.BoolVar(&o.jsonOut, "json", false, "print the session result as JSON")
	flag.Parse()

	partial, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsyncctl:", err)
	} else if partial {
		fmt.Fprintln(os.Stderr, "tsyncctl: output is partial (salvaged from a damaged trace)")
	}
	os.Exit(exitcode.From(err, partial))
}

func loadSidecar(in string) (sidecar, error) {
	var side sidecar
	blob, err := os.ReadFile(in + ".offsets.json")
	if err != nil {
		return side, nil // no sidecar: fine for -base none
	}
	if err := json.Unmarshal(blob, &side); err != nil {
		return side, fmt.Errorf("offset sidecar: %w", err)
	}
	return side, nil
}

func run(o options) (bool, error) {
	side, err := loadSidecar(o.in)
	if err != nil {
		return false, err
	}
	if (o.base == "align" || o.base == "interp") && len(side.Init) == 0 {
		return false, fmt.Errorf("no %s.offsets.json sidecar: alignment/interpolation need the offset tables", o.in)
	}

	f, err := os.Open(o.in)
	if err != nil {
		return false, err
	}
	defer f.Close()

	h := tsyncd.Hello{
		Tenant: o.tenant, Base: o.base, CLC: o.withCLC,
		Window: o.window, Policy: o.spill,
		Salvage: o.salvage, MaxSkipBytes: o.maxSkip,
		WantTrace: o.out != "",
		Init:      side.Init, Fin: side.Fin,
	}

	var outF *os.File
	if o.out != "" {
		if outF, err = os.Create(o.out); err != nil {
			return false, err
		}
	}
	cl := tsyncd.NewClient(tsyncd.ClientConfig{
		Addr: o.addr, Seed: o.seed, Attempts: o.attempts, Timeout: o.timeout,
	})
	var done *tsyncd.Done
	if outF != nil {
		done, err = cl.Sync(context.Background(), h, f, outF)
		if cerr := outF.Close(); err == nil {
			err = cerr
		}
	} else {
		done, err = cl.Sync(context.Background(), h, f, nil)
	}
	if err != nil {
		return false, err
	}

	if o.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(done); err != nil {
			return false, err
		}
		return done.Partial, nil
	}
	printDone(o, done)
	return done.Partial, nil
}

func printDone(o options, d *tsyncd.Done) {
	res := d.Result
	fmt.Printf("trace: %s synced by %s, %d events (remote session)\n\n", o.in, o.addr, res.Stats.Events)
	fmt.Printf("%-8s %6d messages, %5d reversed (%.2f%%), %5d clock-condition violations (incl. %d logical reversed)\n",
		"before:", res.Before.Messages, res.Before.Reversed, res.Before.PctReversed(), res.Before.ClockCondition, res.Before.ReversedLogical)
	fmt.Printf("%-8s %6d messages, %5d reversed (%.2f%%), %5d clock-condition violations (incl. %d logical reversed)\n",
		"after:", res.After.Messages, res.After.Reversed, res.After.PctReversed(), res.After.ClockCondition, res.After.ReversedLogical)
	if o.withCLC {
		fmt.Printf("\nCLC: %d -> %d violations (γ-scaled), %d events moved, max advance %s µs\n",
			res.CLCReport.ViolationsBefore, res.CLCReport.ViolationsAfter, res.CLCReport.EventsMoved, render.Micro(res.CLCReport.MaxAdvance))
	}
	fmt.Printf("interval distortion: max %s µs, mean %s µs, %d of %d intervals shrunk\n",
		render.Micro(res.Distortion.MaxAbs), render.Micro(res.Distortion.MeanAbs), res.Distortion.Shrunk, res.Distortion.N)
	fmt.Printf("\nchecksum: %s\n", d.Checksum)
	if o.out != "" {
		fmt.Printf("corrected trace written to %s (checksum verified)\n", o.out)
	}
}
