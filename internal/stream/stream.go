// Package stream runs the paper's postmortem analyses over trace files
// without materializing them: events are decoded incrementally
// (trace.EventReader), merged across ranks in oracle-time order, and the
// per-rank corrections — offset alignment and linear interpolation
// (Eq. 2/3), clock-condition violation scanning (Eq. 1), Lamport
// schedules, and the controlled logical clock with its forward and
// backward amortization — are computed online. Memory is bounded by the
// reorder window (in-flight messages, open collective instances, and the
// CLC backward-amortization look-back), not by the trace length;
// finalized per-rank results spill to temporary files and are assembled
// into the output trace rank-major.
//
// The streaming path is pinned to the in-memory one (internal/core,
// internal/clc, internal/interp, internal/analysis) by differential
// property tests: output event bytes and experiment checksums are
// required to be bit-identical. That works because both paths share one
// codec (trace.EventWriter), the same interp mapping calls, and because
// the CLC forward recurrence is a max-based fixpoint whose value is
// independent of the topological processing order.
//
// Ordering contract: the engine processes events in merged (True, rank)
// order. The simulator guarantees strictly increasing oracle time along
// every happened-before edge, which makes that merge a topological order
// of the happened-before graph. Traces violating it (which the simulator
// never produces) fail with an explicit error instead of silently
// computing garbage; the in-memory path (internal/core) remains available
// for them.
package stream

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"tsync/internal/trace"
)

// DefaultWindow is the per-rank reorder-window capacity (in pending
// items) used when Options.Window is zero: 64Ki entries, a few MiB per
// rank in the worst case.
const DefaultWindow = 1 << 16

// DefaultBatch is the slab size (events per batch) used when
// Options.Batch is zero: large enough to amortize per-slab channel and
// pool traffic to noise, small enough that a rank's in-flight slabs stay
// a few hundred KiB.
const DefaultBatch = 4096

// ErrUnsupported reports a request the streaming path cannot serve
// (error-estimation bases, shared-memory CLC, clock domains, JSON
// traces). Callers fall back to the in-memory path.
var ErrUnsupported = errors.New("stream: unsupported by the streaming path")

// ErrWindowExceeded reports that a rank's pending state outgrew the
// reorder window under PolicyError: typically a message whose send
// outlives the window before its receive shows up, or a collective
// instance held open across too many events.
var ErrWindowExceeded = errors.New("stream: reorder window exceeded")

// Policy selects what happens when a rank's pending state outgrows the
// window.
type Policy int

const (
	// PolicySpill releases the bound: pending state grows past the
	// window (the overflow is recorded in Stats) and the run completes.
	// Finalized results always stream to per-rank temp files, so only
	// the pending set itself grows.
	PolicySpill Policy = iota
	// PolicyError fails fast with ErrWindowExceeded, keeping the memory
	// guarantee hard.
	PolicyError
)

// String names the policy (flag value spelling).
func (p Policy) String() string {
	switch p {
	case PolicySpill:
		return "spill"
	case PolicyError:
		return "error"
	}
	return fmt.Sprintf("Policy(%d)", int(p))
}

// ParsePolicy maps a flag spelling onto a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "spill":
		return PolicySpill, nil
	case "error":
		return PolicyError, nil
	}
	return 0, fmt.Errorf("stream: unknown window policy %q (want spill or error)", s) //tsync:rawerr — flag-spelling validation, not trace bytes; no decode sentinel applies
}

// Options tune the streaming engine.
type Options struct {
	// Window caps each rank's pending items: unmatched sends, open
	// collective-instance records, and backward-amortization look-back
	// entries. Zero selects DefaultWindow.
	Window int
	// Policy selects spill-or-error behavior at the window boundary.
	Policy Policy
	// Batch is the slab size of the staged pipeline: how many events
	// flow between the decode, merge, and encode stages per hand-off.
	// Zero selects DefaultBatch. Batch only affects wall time, never
	// output: the differential suite runs across batch sizes.
	Batch int
	// Shards splits the k-way merge into a two-level tree: contiguous
	// rank groups are merged concurrently by per-shard workers whose
	// sorted streams feed a root merge. Zero selects an automatic count
	// from the rank count (1 — the flat single-heap merge — below
	// autoShardRanks ranks); 1 forces the flat merge. Like Batch, Shards
	// only affects wall time and memory shape, never output: the
	// two-level merge is bit-identical to the flat one (see shard.go and
	// DESIGN.md §12), and the differential suite runs across shard
	// counts.
	Shards int
	// SpillFS overrides the filesystem used for spill temp files; nil
	// selects an OS temp directory. Tests inject fault-heavy
	// implementations here.
	SpillFS SpillFS
}

// Normalize clamps every tunable to its usable range: non-positive
// Window and Batch select their defaults, negative Shards means
// automatic. All entry points normalize
// exactly once, up front, so the rest of the package can assume sane
// values instead of re-checking per use. Shards stays zero here when
// automatic — the concrete count depends on the source's rank count and
// is resolved per walk by shardCount.
func (o Options) Normalize() Options {
	if o.Window <= 0 {
		o.Window = DefaultWindow
	}
	if o.Batch <= 0 {
		o.Batch = DefaultBatch
	}
	if o.Shards < 0 {
		o.Shards = 0
	}
	return o
}

// RankLoss records what salvage could not preserve for one rank: the
// decode-side damage (events lost to corruption, bytes skipped while
// resynchronizing) and the engine-side fallout (happened-before edges
// that had to be dropped because one endpoint was lost).
type RankLoss struct {
	Rank int
	// LostEvents counts events the rank's intact header declared but the
	// decode could not deliver. When the header itself was lost the
	// count is unknowable: Unknown is set instead.
	LostEvents int64
	// Unknown reports loss that cannot be counted (a destroyed process
	// header took its declared event count with it).
	Unknown bool
	// SkippedBytes and Incidents attribute the resync scans that
	// happened while this rank's section was being read.
	SkippedBytes int64
	Incidents    int
	// DroppedSends counts sends whose matching receive never arrived
	// (lost in a gap); their out-edge was abandoned at end of trace.
	DroppedSends int64
	// OrphanRecvs counts receives processed without a plausible matching
	// send; they were kept as local events with no incoming edge.
	OrphanRecvs int64
	// BrokenCollectives counts collective participations that could not
	// be completed normally: ends without begins, begins without ends,
	// duplicate or inconsistent records.
	BrokenCollectives int64
}

// LossPct returns the rank's event loss as a percentage of what the
// trace should have held — lost plus the retained count the caller
// observed — and whether that figure is meaningful. When the rank's
// header was destroyed (Unknown: a placeholder rank with zero retained
// events and an uncountable loss) or nothing was expected at all, there
// is no denominator: reports must print "?" rather than the NaN/Inf a
// naive division would produce, so ok is false and pct is 0.
func (l RankLoss) LossPct(retained int64) (pct float64, ok bool) {
	total := retained + l.LostEvents
	if l.Unknown || total <= 0 {
		return 0, false
	}
	return 100 * float64(l.LostEvents) / float64(total), true
}

// Any reports whether the record registers any loss at all.
func (l RankLoss) Any() bool {
	return l.LostEvents != 0 || l.Unknown || l.SkippedBytes != 0 || l.Incidents != 0 ||
		l.DroppedSends != 0 || l.OrphanRecvs != 0 || l.BrokenCollectives != 0
}

// WriteLoss writes the salvage report the CLIs print: the decode-side
// totals from rep, then one line per rank that registers any loss. procs
// carries each rank's retained event count so losses can be expressed as
// percentages; a rank whose expected total is unknowable (destroyed
// header) prints "?" instead of a number.
func WriteLoss(w io.Writer, rep *trace.CorruptionReport, loss []RankLoss, procs []trace.ProcHeader) error {
	var b strings.Builder
	fmt.Fprintf(&b, "\nsalvage: %d incidents, %d bytes skipped", len(rep.Incidents), rep.SkippedBytes)
	if rep.LostEvents > 0 {
		fmt.Fprintf(&b, ", %d events known lost", rep.LostEvents)
	}
	if rep.UnknownLoss {
		b.WriteString(", further loss uncountable")
	}
	b.WriteByte('\n')
	for _, l := range loss {
		if !l.Any() {
			continue
		}
		fmt.Fprintf(&b, "  rank %d:", l.Rank)
		if l.LostEvents > 0 {
			fmt.Fprintf(&b, " %d events lost", l.LostEvents)
			if l.Rank >= 0 && l.Rank < len(procs) {
				if pct, ok := l.LossPct(int64(procs[l.Rank].EventCount)); ok {
					fmt.Fprintf(&b, " (%.1f%%)", pct)
				} else {
					b.WriteString(" (?%)")
				}
			}
		}
		if l.Unknown {
			b.WriteString(" unknown loss")
		}
		if l.SkippedBytes > 0 {
			fmt.Fprintf(&b, " %d bytes skipped (%d incidents)", l.SkippedBytes, l.Incidents)
		}
		if l.DroppedSends > 0 {
			fmt.Fprintf(&b, " %d sends dropped", l.DroppedSends)
		}
		if l.OrphanRecvs > 0 {
			fmt.Fprintf(&b, " %d receives orphaned", l.OrphanRecvs)
		}
		if l.BrokenCollectives > 0 {
			fmt.Fprintf(&b, " %d collective records broken", l.BrokenCollectives)
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Stats reports what a streaming run buffered and processed.
type Stats struct {
	// Events is the trace's (retained) event count: every pass of a job
	// processes each event exactly once.
	Events int64
	// MaxPending is the high-water mark of any single rank's pending
	// items during the job's merge walk (a job makes exactly one).
	MaxPending int
	// SpilledEvents counts pending-item insertions beyond the window
	// under PolicySpill during that one walk: unmatched sends, open
	// collective records and, with CLC, look-back entries. Zero means
	// the window was never exceeded.
	SpilledEvents int64
	// Loss holds one record per rank when the run salvaged a damaged
	// trace (nil for clean strict runs).
	Loss []RankLoss
}

// accounting enforces the window policy over per-rank pending items.
type accounting struct {
	opt     Options
	stats   *Stats
	pending []int
}

func newAccounting(ranks int, opt Options, stats *Stats) *accounting {
	return &accounting{opt: opt, stats: stats, pending: make([]int, ranks)}
}

// begin is every job's preamble: it normalizes the options, once, and
// seeds stats with the source's event count and, for a source opened
// under salvage, its decode-side losses, to which the walk adds the
// engine-side counters in place. The accounting it returns carries both
// (opt, stats) to the walk, which charges the window to it.
func begin(src *Source, opt Options, stats *Stats) *accounting {
	stats.Events = src.Events()
	if src.pol.Enabled {
		stats.Loss = src.Losses()
	}
	return newAccounting(src.Ranks(), opt.Normalize(), stats)
}

// add charges n pending items (n may be negative) to rank and applies
// the window policy.
func (a *accounting) add(rank, n int) error {
	a.pending[rank] += n
	p := a.pending[rank]
	if p > a.stats.MaxPending {
		a.stats.MaxPending = p
	}
	if n > 0 && p > a.opt.Window {
		if a.opt.Policy == PolicyError {
			return fmt.Errorf("%w: rank %d holds %d pending items (window %d)", ErrWindowExceeded, rank, p, a.opt.Window)
		}
		a.stats.SpilledEvents += int64(n)
	}
	return nil
}
