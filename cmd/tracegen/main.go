// Command tracegen runs a synthetic workload on the simulated cluster and
// writes the resulting event trace (plus the offset measurements taken at
// initialization and finalization) to a .etr file for later analysis with
// tracesync.
//
// With -synth it instead emits a ring-workload trace through the streaming
// encoder: events go straight to disk as they are generated, so trace size
// is limited by disk, not memory — the generator for the streaming bench
// and differential tests.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"tsync/internal/apps"
	"tsync/internal/clock"
	"tsync/internal/measure"
	"tsync/internal/mpi"
	"tsync/internal/stream"
	"tsync/internal/topology"
	"tsync/internal/trace"
	"tsync/internal/xrand"
)

// sidecar is the offset-table file written next to the trace.
type sidecar struct {
	Init []measure.Offset `json:"init"`
	Fin  []measure.Offset `json:"fin"`
}

func main() {
	var (
		app       = flag.String("app", "pop", "workload: pop, smg, transpose")
		machine   = flag.String("machine", "xeon", "machine: xeon, ppc, opteron")
		timer     = flag.String("timer", "tsc", "timer")
		ranks     = flag.Int("ranks", 32, "MPI processes")
		seed      = flag.Uint64("seed", 1, "random seed")
		scale     = flag.Float64("scale", 1, "workload duration multiplier")
		out       = flag.String("o", "trace.etr", "output trace file")
		synth     = flag.Bool("synth", false, "stream a synthetic ring workload to disk instead of simulating (-app/-machine/-timer/-scale ignored)")
		steps     = flag.Int("steps", 1000, "ring steps per rank (with -synth)")
		collEvery = flag.Int("collevery", 10, "collective round every N steps, 0 for none (with -synth)")
		v2        = flag.Bool("v2", false, "write the checksummed v2 framing (self-synchronizing; tracesync/tracestat -salvage can recover around corruption)")
		frame     = flag.Int("frame", 0, "v2 frame size in events (0 = default)")
		columnar  = flag.Bool("columnar", false, "encode v2 frames column-major with delta-varint timestamps (about 15% smaller than row frames on a -synth trace, about 15% more CPU to decode; implies -v2)")
	)
	flag.Parse()

	wopt := trace.WriterOptions{FrameEvents: *frame, Columnar: *columnar}
	if *v2 || *columnar {
		wopt.Version = trace.Version2
	}
	var err error
	if *synth {
		err = runSynth(*ranks, *steps, *collEvery, *seed, *out, wopt)
	} else {
		err = run(*app, *machine, *timer, *ranks, *seed, *scale, *out, wopt)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// runSynth streams a synthetic trace to disk: events are encoded as they
// are generated, one at a time, so peak memory does not depend on -steps.
func runSynth(ranks, steps, collEvery int, seed uint64, out string, wopt trace.WriterOptions) error {
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	init, fin, err := stream.Synth(stream.SynthSpec{
		Ranks: ranks, Steps: steps, CollEvery: collEvery, Seed: seed,
		Version: wopt.Version, FrameEvents: wopt.FrameEvents, Columnar: wopt.Columnar,
	}, f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := writeSidecar(out, sidecar{Init: init, Fin: fin}); err != nil {
		return err
	}
	info, err := os.Stat(out)
	if err != nil {
		return err
	}
	events := ranks * (steps * 4)
	if collEvery > 0 {
		events += ranks * (steps / collEvery) * 2
	}
	fmt.Printf("wrote %s (%d bytes, %d events, %d ranks, streamed) and %s.offsets.json\n",
		out, info.Size(), events, ranks, out)
	return nil
}

func writeSidecar(out string, side sidecar) error {
	blob, err := json.MarshalIndent(side, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(out+".offsets.json", blob, 0o644)
}

func run(app, machine, timer string, ranks int, seed uint64, scale float64, out string, wopt trace.WriterOptions) error {
	m, err := topology.ParseMachine(machine)
	if err != nil {
		return err
	}
	k, err := clock.ParseKind(timer)
	if err != nil {
		return err
	}
	pin, err := topology.Scheduled(m, ranks, xrand.NewSource(seed^0x5bd1e995))
	if err != nil {
		return err
	}
	w, err := mpi.NewWorld(mpi.Config{Machine: m, Timer: k, Pinning: pin, Seed: seed})
	if err != nil {
		return err
	}
	var body func(*mpi.Rank)
	switch app {
	case "pop":
		px, py := grid(ranks)
		cfg := apps.DefaultPOP(px, py)
		cfg.Seed = seed
		cfg.StepTime *= scale
		body = apps.POP(cfg)
	case "smg":
		cfg := apps.DefaultSMG()
		cfg.Seed = seed
		cfg.IdleBefore *= scale
		cfg.IdleAfter *= scale
		body = apps.SMG(cfg)
	case "transpose":
		px, py := grid(ranks)
		cfg := apps.DefaultTranspose(px, py)
		cfg.Seed = seed
		cfg.StepTime *= scale
		body = apps.Transpose(cfg)
	default:
		return fmt.Errorf("unknown app %q", app)
	}
	var side sidecar
	var inner error
	err = w.Run(func(r *mpi.Rank) {
		init, err := measure.Offsets(r, 20)
		if err != nil {
			inner = err
			return
		}
		body(r)
		fin, err := measure.Offsets(r, 20)
		if err != nil {
			inner = err
			return
		}
		if r.Rank() == 0 {
			side.Init, side.Fin = init, fin
		}
	})
	if err != nil {
		return err
	}
	if inner != nil {
		return inner
	}
	tr := w.Trace()

	f, err := os.Create(out)
	if err != nil {
		return err
	}
	n, err := trace.WriteOpts(f, tr, wopt)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if err := writeSidecar(out, side); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes, %d events, %d ranks) and %s.offsets.json\n",
		out, n, tr.EventCount(), len(tr.Procs), out)
	return nil
}

func grid(n int) (int, int) {
	best := 1
	for d := 1; d*d <= n; d++ {
		if n%d == 0 {
			best = d
		}
	}
	return n / best, best
}
