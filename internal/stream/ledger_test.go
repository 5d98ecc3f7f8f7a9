package stream

// White-box tests for the settle-time After census (the ledger in
// clc.go). The reference is the second merge walk the pipeline used to
// make: a censusSink over the spilled corrected times. It is kept here,
// as test code, and the ledger must agree with it on clean and salvaged
// traces under every window, batch and shard shape.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strings"
	"testing"

	"tsync/internal/analysis"
	"tsync/internal/clc"
	"tsync/internal/core"
	"tsync/internal/faultinject"
	"tsync/internal/measure"
	"tsync/internal/trace"
	"tsync/internal/xrand"
)

const ledgerSeed = 0x1ed6e7

// PaperCaseSpec is the paper's case at test size: 16 ranks, a collective
// every second step, and a frequency jump on every odd rank at a third of
// the span, which interpolation between the two offset tables cannot
// follow. Exported for the differential matrix in diff_test.go.
func PaperCaseSpec(seed uint64) SynthSpec { return PaperCaseSteps(seed, 48) }

// PaperCaseSteps is PaperCaseSpec at another length (the alloc-rate test
// compares two).
func PaperCaseSteps(seed uint64, steps int) SynthSpec {
	spec := SynthSpec{Ranks: 16, Steps: steps, CollEvery: 2, Seed: seed}
	span := float64(spec.Steps+spec.Steps/spec.CollEvery) * 1e-3
	var faults []faultinject.ClockFault
	for r := 1; r < spec.Ranks; r += 2 {
		faults = append(faults, faultinject.ClockFault{Rank: r, Kind: faultinject.FreqJump, At: span / 3, Delta: 1e-1})
	}
	spec.DistortClock = faultinject.Distort(faults)
	return spec
}

// rewalk recounts the After census the old way: one more merge walk whose
// time mapper replays the spill files a finished run left on fs.
func rewalk(t *testing.T, src *Source, fs SpillFS, gamma float64, opt Options) (analysis.Census, int) {
	t.Helper()
	opt = opt.Normalize()
	set, err := newSpillSet(src.Ranks(), fs)
	if err != nil {
		t.Fatal(err)
	}
	defer set.Close()
	m := set.mapper()
	second := &censusSink{gamma: gamma}
	var stats Stats
	if err := walk(context.Background(), src, m, second, newAccounting(src.Ranks(), opt, &stats)); err != nil {
		t.Fatalf("rewalk: %v", err)
	}
	return second.mapped, second.violations
}

// TestLedgerMatchesRewalk runs the paper's case, clean and burst-corrupted
// under salvage, through CLC with wide, narrow and no backward windows
// (the narrow ones emit tails long before their heads arrive, so parked
// finals and late listing are exercised) at γ 1 and 0.5.
func TestLedgerMatchesRewalk(t *testing.T) {
	clean := PaperCaseSpec(xrand.SeedAt(ledgerSeed, 0))
	damaged := PaperCaseSpec(xrand.SeedAt(ledgerSeed, 1))
	// seven-event frames cut between a rank's CollBegin and its CollEnd,
	// so losing one breaks collectives as well as messages
	damaged.Version, damaged.FrameEvents = trace.Version2, 7

	var cleanBuf, damagedBuf bytes.Buffer
	cleanInit, cleanFin, err := Synth(clean, &cleanBuf)
	if err != nil {
		t.Fatal(err)
	}
	damagedInit, damagedFin, err := Synth(damaged, &damagedBuf)
	if err != nil {
		t.Fatal(err)
	}
	cleanSrc, err := NewSource(bytes.NewReader(cleanBuf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	flips := faultinject.NewBurstFlips(xrand.SeedAt(ledgerSeed, 2), int64(damagedBuf.Len()), 24, 96)
	damagedSrc, err := NewSourceOpts(&faultinject.ReaderAt{R: bytes.NewReader(damagedBuf.Bytes()), F: flips}, SourceOptions{Salvage: true})
	if err != nil {
		t.Fatal(err)
	}
	if !damagedSrc.Salvaged() {
		t.Fatal("corrupted input not reported as salvaged")
	}

	cases := []struct {
		name      string
		src       *Source
		init, fin []measure.Offset
	}{
		{"clean", cleanSrc, cleanInit, cleanFin},
		{"salvaged", damagedSrc, damagedInit, damagedFin},
	}
	for _, tc := range cases {
		for _, back := range []float64{0.5, 2e-3, 0} {
			for _, gamma := range []float64{1, 0.5} {
				opts := clc.DefaultOptions()
				opts.BackwardWindow, opts.Gamma = back, gamma
				for _, window := range []int{1, 4096} {
					for _, batch := range []int{1, 4096} {
						for _, shards := range []int{1, 4} {
							name := fmt.Sprintf("%s/back%g/g%g/w%d/b%d/s%d", tc.name, back, gamma, window, batch, shards)
							t.Run(name, func(t *testing.T) {
								fs := faultinject.NewFS(-1)
								opt := Options{Window: window, Batch: batch, Shards: shards, SpillFS: fs}
								res, err := Pipeline{Base: core.BaseInterp, CLC: true, CLCOptions: opts, Options: opt}.Run(tc.src, nil, tc.init, tc.fin)
								if err != nil {
									t.Fatal(err)
								}
								after, violations := rewalk(t, tc.src, fs, gamma, opt)
								if res.After != after {
									t.Errorf("After census differs:\n ledger %+v\n rewalk %+v", res.After, after)
								}
								if res.CLCReport.ViolationsAfter != violations {
									t.Errorf("ViolationsAfter: ledger %d, rewalk %d", res.CLCReport.ViolationsAfter, violations)
								}
								if res.CLCReport.ViolationsBefore == 0 || res.CLCReport.EventsMoved == 0 {
									t.Errorf("the case does not exercise CLC: %+v", res.CLCReport)
								}
								if gamma < 1 && res.After.ClockCondition == 0 {
									t.Error("γ 0.5 left no Eq. 1 violation in the After census: the count is trivially zero")
								}
								if tc.src.Salvaged() {
									var l RankLoss
									for _, rl := range res.Stats.Loss {
										l.OrphanRecvs += rl.OrphanRecvs
										l.DroppedSends += rl.DroppedSends
										l.BrokenCollectives += rl.BrokenCollectives
									}
									if l.OrphanRecvs == 0 || l.DroppedSends == 0 || l.BrokenCollectives == 0 {
										t.Errorf("the corruption does not exercise every salvage path: %+v", l)
									}
								}
							})
						}
					}
				}
			}
		}
	}
}

// discardFS swallows spill writes.
type discardFS struct{}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

func (discardFS) Create(string) (io.WriteCloser, error) { return nopWriteCloser{io.Discard}, nil }
func (discardFS) Open(name string) (io.ReadCloser, error) {
	return nil, fmt.Errorf("discardFS: open %s", name)
}

// sinkDriver feeds a clcSink by hand, playing the engine's part of the
// sink contract: event once per event, final once its out-edges are done.
type sinkDriver struct {
	t   *testing.T
	s   *clcSink
	idx []int
	// inst is stamped on every event; only collective events read it.
	inst int32
}

func newSinkDriver(t *testing.T, ranks int, opts clc.Options) *sinkDriver {
	t.Helper()
	spills, err := newSpillSet(ranks, discardFS{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { spills.Close() })
	acct := newAccounting(ranks, Options{}.Normalize(), new(Stats))
	s, err := newCLCSink(ranks, opts, acct, new(clc.Report), spills, func(int, int) float64 { return 1e-6 })
	if err != nil {
		t.Fatal(err)
	}
	return &sinkDriver{t: t, s: s, idx: make([]int, ranks)}
}

// tail is a delivered send or begin: what the engine would hold until the
// heads arrive.
type tail struct {
	ref  EventRef
	data EdgeData
}

func (d *sinkDriver) event(rank int, kind trace.Kind, at float64, in ...InEdge) tail {
	ev := trace.Event{Kind: kind, Time: at, True: at, Instance: d.inst}
	ref := EventRef{Rank: rank, Idx: d.idx[rank]}
	d.idx[rank]++
	data, err := d.s.event(rank, ref.Idx, &ev, at, in)
	if err != nil {
		d.t.Fatal(err)
	}
	return tail{ref, data}
}

func (d *sinkDriver) final(refs ...EventRef) {
	for _, ref := range refs {
		if err := d.s.final(ref); err != nil {
			d.t.Fatal(err)
		}
	}
}

func (d *sinkDriver) local(rank int, kind trace.Kind, at float64, in ...InEdge) {
	d.final(d.event(rank, kind, at, in...).ref)
}

func (tl tail) edge(logical bool) InEdge {
	return InEdge{From: tl.ref, Data: tl.data, LMin: 1e-6, Logical: logical}
}

func (d *sinkDriver) flush() error {
	for r := range d.idx {
		if err := d.s.rankDone(r); err != nil {
			d.t.Fatal(err)
		}
	}
	return d.s.flush()
}

// TestLedgerFlushLeftovers: a tail the engine never finalizes leaves its
// record behind, and flush must say so instead of reporting a census
// that is missing edges.
func TestLedgerFlushLeftovers(t *testing.T) {
	noBack := clc.DefaultOptions()
	noBack.BackwardWindow = 0

	t.Run("parked-send", func(t *testing.T) {
		d := newSinkDriver(t, 2, noBack)
		d.event(0, trace.Send, 1) // never matched, never finalized
		d.local(0, trace.Exit, 2)
		err := d.flush()
		if err == nil || !strings.Contains(err.Error(), "missing finality") {
			t.Fatalf("flush = %v, want a missing-finality error", err)
		}
		if m, c := d.s.msgs.live(), d.s.colls.live(); m != 1 || c != 0 || len(d.s.parked) != 1 {
			t.Errorf("left %d edge records, %d instance records, %d parked; want 1, 0, 1", m, c, len(d.s.parked))
		}
	})
	t.Run("open-instance", func(t *testing.T) {
		d := newSinkDriver(t, 2, noBack)
		b0 := d.event(0, trace.CollBegin, 1)
		b1 := d.event(1, trace.CollBegin, 1)
		d.local(0, trace.CollEnd, 2, b1.edge(true))
		d.local(1, trace.CollEnd, 2, b0.edge(true))
		d.final(b0.ref) // b1's final never comes
		err := d.flush()
		if err == nil || !strings.Contains(err.Error(), "missing finality") {
			t.Fatalf("flush = %v, want a missing-finality error", err)
		}
		if m, c := d.s.msgs.live(), d.s.colls.live(); m != 0 || c != 1 {
			t.Errorf("left %d edge records, %d instance records; want 0, 1", m, c)
		}
	})
	t.Run("complete", func(t *testing.T) {
		d := newSinkDriver(t, 2, noBack)
		s := d.event(0, trace.Send, 1)
		b0 := d.event(0, trace.CollBegin, 2)
		b1 := d.event(1, trace.CollBegin, 2)
		rcv := d.event(1, trace.Recv, 3, s.edge(false))
		d.final(s.ref, rcv.ref)
		d.local(0, trace.CollEnd, 4, b1.edge(true))
		d.local(1, trace.CollEnd, 4, b0.edge(true))
		d.final(b0.ref, b1.ref)
		if err := d.flush(); err != nil {
			t.Fatal(err)
		}
		if d.s.after != (analysis.Census{Messages: 1, LogicalMessages: 2}) || d.s.violations != 0 {
			t.Errorf("three in-order edges counted as %+v, %d violations", d.s.after, d.s.violations)
		}
	})
}

// TestLedgerCounts drives one hand-built graph through the sink and pins
// every count. The in-edges carry a zero forward value, so CLC moves
// nothing and the settled times are the times given here: the ledger
// alone decides the counts. With no backward window tails are emitted
// (and parked) before their heads arrive; with a wide one everything
// waits in the deques until the ranks close.
//
//	rank 0: S 1.0 · B0 2.2 · E0 2.2000001 ← B1 · R0 2.3 ← S2
//	rank 1: R 0.5 ← S · B1 2.0 · E1 2.0000001 ← B0, B2
//	rank 2: S2 2.5 · B2 3.0 (begins after E0 was delivered) · E2 3.5 ← B0, B1
//
// Reversed: S→R, S2→R0, B0→E1, B2→E1. E0 and E1 follow their own begins
// by less than l_min and E0 precedes B2: none of those is an edge.
func TestLedgerCounts(t *testing.T) {
	for _, back := range []float64{0, 0.5} {
		t.Run(fmt.Sprintf("back%g", back), func(t *testing.T) {
			opts := clc.DefaultOptions()
			opts.BackwardWindow = back
			d := newSinkDriver(t, 3, opts)
			unforced := func(tl tail, logical bool) InEdge {
				e := tl.edge(logical)
				e.Data.Value = 0
				return e
			}
			s := d.event(0, trace.Send, 1.0)
			r := d.event(1, trace.Recv, 0.5, unforced(s, false))
			d.final(s.ref, r.ref)
			b1 := d.event(1, trace.CollBegin, 2.0)
			b0 := d.event(0, trace.CollBegin, 2.2)
			d.local(0, trace.CollEnd, 2.2000001, unforced(b1, true))
			s2 := d.event(2, trace.Send, 2.5)
			b2 := d.event(2, trace.CollBegin, 3.0)
			r0 := d.event(0, trace.Recv, 2.3, unforced(s2, false))
			d.final(s2.ref, r0.ref)
			d.local(1, trace.CollEnd, 2.0000001, unforced(b0, true), unforced(b2, true))
			d.local(2, trace.CollEnd, 3.5, unforced(b0, true), unforced(b1, true))
			d.final(b0.ref, b1.ref, b2.ref)
			if err := d.flush(); err != nil {
				t.Fatal(err)
			}
			want := analysis.Census{Messages: 2, Reversed: 2, ClockCondition: 2, LogicalMessages: 5, ReversedLogical: 2}
			if d.s.after != want || d.s.violations != 4 {
				t.Errorf("ledger counted %+v and %d violations, want %+v and 4", d.s.after, d.s.violations, want)
			}
		})
	}
}

// TestLedgerRecycleAllocs pins steady-state ledger traffic to zero
// allocations. Each step sends one message that is received at once (both
// entries pending: a shared record) and one received lag steps later
// (the send is emitted first: a parked final the receive claims), and
// opens a two-rank collective whose ends arrive lag steps after its
// begins (parked begins listed late). The backward window is a fraction
// of the lag and no event forces a forward jump (a pending ramp job would
// hold every deque until the lagging finals came), so records are
// created, judged and freed every step.
func TestLedgerRecycleAllocs(t *testing.T) {
	const (
		dt  = 1e-3
		lag = 8
	)
	opts := clc.DefaultOptions()
	opts.BackwardWindow = 2 * dt
	d := newSinkDriver(t, 2, opts)
	var sends, begins0, begins1 [lag]tail
	step := 0
	run := func() {
		at := float64(step) * dt
		slot := step % lag
		if step >= lag {
			d.inst = int32(step - lag)
			rcv := d.event(1, trace.Recv, at, sends[slot].edge(false))
			d.final(sends[slot].ref, rcv.ref)
			d.local(0, trace.CollEnd, at+dt/8, begins1[slot].edge(true))
			d.local(1, trace.CollEnd, at+dt/8, begins0[slot].edge(true))
			d.final(begins0[slot].ref, begins1[slot].ref)
		}
		d.inst = int32(step)
		sends[slot] = d.event(0, trace.Send, at+dt/4)
		now := d.event(1, trace.Send, at+dt/4)
		rcv := d.event(0, trace.Recv, at+dt/2, now.edge(false))
		d.final(now.ref, rcv.ref)
		begins0[slot] = d.event(0, trace.CollBegin, at+3*dt/4)
		begins1[slot] = d.event(1, trace.CollBegin, at+3*dt/4)
		step++
	}
	for step < 64*lag {
		run()
	}
	if m, c := d.s.msgs.live(), d.s.colls.live(); m == 0 || c == 0 || len(d.s.parked) == 0 {
		t.Fatalf("the workout does not keep every kind of record in flight: %d edge, %d instance, %d parked", m, c, len(d.s.parked))
	}
	if len(d.s.msgs.recs) > 8*lag || len(d.s.colls.recs) > 8*lag {
		t.Fatalf("records are not recycled: %d edge and %d instance slots after %d steps", len(d.s.msgs.recs), len(d.s.colls.recs), step)
	}
	if avg := testing.AllocsPerRun(2000, run); avg != 0 {
		t.Errorf("steady-state ledger traffic allocates %.0f per step, want 0", avg)
	}
}

// TestPumpScanSteps: a ramp job that waits on one non-final tail is asked
// again by every later event and final of its rank. Each retry must pick
// the readiness scan up at the blocking entry, not walk the whole reach
// down to it again: n entries between the jump and the tail and n events
// after the jump cost O(n) inspected entries in total, where restarting
// cost n per retry.
func TestPumpScanSteps(t *testing.T) {
	const (
		n  = 2000
		dt = 1e-6 // n·dt stays far inside the 0.5 s backward window
	)
	d := newSinkDriver(t, 2, clc.DefaultOptions())
	held := d.event(0, trace.Send, 1) // its receive never comes: not final
	for i := 1; i <= n; i++ {
		d.local(0, trace.Exit, 1+float64(i)*dt)
	}
	// a receive forced 0.1 s ahead of its own clock: a jump, whose ramp
	// reaches back over everything above
	far := d.event(1, trace.Send, 1.1)
	rcv := d.event(0, trace.Recv, 1+float64(n+1)*dt, far.edge(false))
	d.final(far.ref, rcv.ref)
	r := &d.s.ranks[0]
	if r.jobs.len() != 1 || r.deque.len() != n+2 {
		t.Fatalf("set-up left %d jobs and %d entries, want 1 and %d", r.jobs.len(), r.deque.len(), n+2)
	}
	before := r.scanned
	for i := 0; i < n; i++ {
		d.local(0, trace.Exit, 1.2+float64(i)*dt)
	}
	if r.jobs.len() == 0 {
		t.Fatal("the job applied while its tail was still open")
	}
	steps := r.scanned - before
	t.Logf("%d retries inspected %d entries", 2*n, steps)
	if steps > 4*n {
		t.Errorf("%d retries inspected %d entries, want O(n): at most %d", 2*n, steps, 4*n)
	}
	d.final(held.ref)
	if r.jobs.len() != 0 {
		t.Errorf("%d jobs still wait after the tail's final", r.jobs.len())
	}
	if r.scanned > before+5*n {
		t.Errorf("the whole run inspected %d entries, want at most %d", r.scanned, before+5*n)
	}
	if err := d.flush(); err != nil {
		t.Fatal(err)
	}
}
