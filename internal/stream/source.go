package stream

import (
	"context"
	"fmt"
	"io"
	"sync"

	"tsync/internal/trace"
)

// SourceOptions tune how a trace file is indexed.
type SourceOptions struct {
	// Salvage enables resynchronizing decode for v2 framed traces: on a
	// checksum or structure failure the index pass scans forward to the
	// next valid block instead of failing, records the damage per rank,
	// and keeps every event that survived intact. v1 traces carry no
	// checksums, so for them Salvage changes nothing — corruption still
	// fails the index pass. Every job over the source then tolerates the
	// happened-before breakage those gaps imply (receives whose send was
	// lost, collectives missing a participant) and counts it in
	// Stats.Loss instead of failing; on an intact file none can occur.
	Salvage bool
	// MaxSkipBytes bounds the total bytes salvage may discard before the
	// run fails with trace.ErrSalvageBudget; zero means unlimited.
	MaxSkipBytes int64
}

// Source is an indexed .etr file: the header and per-process metadata
// are held in memory (O(ranks + regions)), while events stay on disk and
// are decoded on demand through per-rank cursors. How the index is built,
// and so where a damaged file fails, depends on the format:
//
//   - A v2 (framed) file read strictly is indexed by hopping its block
//     heads (hop): proc blocks are read and checksummed, frames are
//     located and counted but their payloads not touched. Damage to the
//     block structure (a head, a proc block, the frame counts against
//     the declared ones, rank order, a missing rank) fails here; damage
//     inside a frame payload fails the first cursor that decodes it,
//     which is the first pass of any job and ahead of its first output
//     byte. Both are trace.ErrBadFormat and name the block's byte offset.
//   - A v1 file has no block boundaries to hop and is indexed by one
//     linear decode (decodeIndex), so it fails here, before any analysis
//     starts.
//   - Under salvage the same linear decode resynchronizes instead: the
//     damage is recorded and the index covers exactly the events that
//     survived.
type Source struct {
	r     io.ReaderAt
	head  trace.Header
	procs []trace.ProcHeader
	// eventOff[i] and endOff[i] bound proc i's event bytes.
	eventOff, endOff []int64
	events           int64

	version int
	// hopped marks an index built from block heads: no pass has decoded
	// the events yet, so the cursors check what decodeIndex would have
	// (per-rank oracle-time order).
	hopped   bool
	pol      trace.ResyncPolicy
	rep      trace.CorruptionReport
	loss     []RankLoss
	salvaged bool
}

// NewSource indexes a trace readable at r with strict (no salvage)
// decoding. The reader must cover the whole encoded trace.
func NewSource(r io.ReaderAt) (*Source, error) {
	return NewSourceOpts(r, SourceOptions{})
}

// NewSourceOpts indexes a trace readable at r under the given options.
// It is NewSourceContext with a background context; indexing a large
// file that a caller may want to abandon should go through
// NewSourceContext.
func NewSourceOpts(r io.ReaderAt, o SourceOptions) (*Source, error) {
	return NewSourceContext(context.Background(), r, o)
}

// NewSourceContext indexes a trace readable at r under the given
// options: a strict v2 file by one small read per block, a v1 file or a
// salvage run by one linear decode of the whole file (see Source).
// Cancelling ctx aborts either between blocks or events (checked every
// ctxCheckEvery of them, like the streaming engine) and returns
// ctx.Err().
func NewSourceContext(ctx context.Context, r io.ReaderAt, o SourceOptions) (*Source, error) {
	return newSource(ctx, r, o, false)
}

// newSource is NewSourceContext; decodeOnly builds the index by linear
// decode whatever the format, which is how the tests check hop against
// the index it replaced.
func newSource(ctx context.Context, r io.ReaderAt, o SourceOptions, decodeOnly bool) (*Source, error) {
	const probe = 1 << 62 // section length; reads stop at EOF
	pol := trace.ResyncPolicy{Enabled: o.Salvage, MaxSkipBytes: o.MaxSkipBytes}
	er, err := trace.NewEventReaderOpts(io.NewSectionReader(r, 0, probe), pol)
	if err != nil {
		return nil, err
	}
	s := &Source{r: r, head: er.Header(), pol: pol, version: er.Version()}
	if s.version == trace.Version2 && !o.Salvage && !decodeOnly {
		s.hopped = true
		err = s.hop(ctx, trace.NewHeadScanner(r, er.Offset()))
	} else {
		err = s.decodeIndex(ctx, er)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// hop indexes a strict v2 file from its block heads. It accepts exactly
// the files decodeIndex accepts, given that every frame it passes over
// later decodes cleanly, and stops like it once the last declared
// process has its declared events.
func (s *Source) hop(ctx context.Context, sc *trace.HeadScanner) error {
	blocks := 0
	next := func() (trace.ScannedBlock, error) {
		if blocks&(ctxCheckEvery-1) == 0 {
			if err := ctx.Err(); err != nil {
				return trace.ScannedBlock{}, err
			}
		}
		blocks++
		return sc.Next()
	}
	for len(s.procs) < s.head.ProcCount {
		b, err := next()
		if err == io.EOF {
			return fmt.Errorf("%w: trace declares %d processes, found %d", trace.ErrBadFormat, s.head.ProcCount, len(s.procs))
		}
		if err != nil {
			return err
		}
		if b.Frame {
			return fmt.Errorf("%w: block at byte %d: frame block where a process header was expected", trace.ErrBadFormat, b.Start)
		}
		ph := b.Proc
		if err := s.admitRank(ph.Rank); err != nil {
			return err
		}
		start, end := b.End, b.End
		for left := ph.EventCount; left > 0; {
			f, err := next()
			if err != nil && err != io.EOF {
				return err
			}
			if err == io.EOF || !f.Frame || f.Rank != ph.Rank {
				return fmt.Errorf("%w: rank %d ended at byte %d with %d declared events missing", trace.ErrBadFormat, ph.Rank, end, left)
			}
			if f.Count > left {
				return fmt.Errorf("%w: block at byte %d: frame of %d events exceeds the %d still declared", trace.ErrBadFormat, f.Start, f.Count, left)
			}
			left -= f.Count
			end = f.End
		}
		s.addRank(ph, start, end, RankLoss{})
	}
	return nil
}

// decodeIndex indexes a v1 file, or a v2 file under salvage, by decoding
// every event once through er.
func (s *Source) decodeIndex(ctx context.Context, er *trace.EventReader) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		ph, err := er.NextProc()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := s.admitRank(ph.Rank); err != nil {
			return err
		}
		declared := ph.EventCount
		start := er.SectionStart()
		prevTrue := 0.0
		n := 0
		var ev trace.Event
		for {
			if n&(ctxCheckEvery-1) == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			err := er.Read(&ev)
			if err == io.EOF {
				er.TookGap() // a trailing gap severs nothing further
				break
			}
			if err != nil {
				return err
			}
			// a gap severs the monotonicity chain: the events on either
			// side are each internally ordered, but the lost span between
			// them is gone
			if gap := er.TookGap(); n > 0 && !gap && ev.True < prevTrue {
				return regressed(ph.Rank, n)
			}
			prevTrue = ev.True
			n++
		}
		ph.EventCount = n
		var l RankLoss
		switch {
		case declared < 0:
			l.Unknown = true
		case declared > n:
			l.LostEvents = int64(declared - n)
		}
		s.addRank(ph, start, er.Position(), l)
	}
	// ranks missing at the tail (their headers and frames all lost);
	// only salvage gets here with any, a strict NextProc fails instead
	for r := len(s.procs); r < s.head.ProcCount; r++ {
		s.placeholderRank(r)
	}
	s.rep = *er.Report()
	for _, inc := range s.rep.Incidents {
		if inc.Rank >= 0 && inc.Rank < len(s.loss) {
			s.loss[inc.Rank].Incidents++
			s.loss[inc.Rank].SkippedBytes += inc.SkippedBytes
		}
	}
	s.salvaged = len(s.rep.Incidents) > 0 || s.rep.LostEvents > 0 || s.rep.UnknownLoss
	return nil
}

// regressed is the error for a rank whose oracle time runs backwards at
// its n-th event, from whichever pass decodes that event first.
func regressed(rank, n int) error {
	return fmt.Errorf("%w: rank %d event %d: oracle time regressed", trace.ErrBadFormat, rank, n)
}

// admitRank enforces that processes appear in contiguous rank order,
// filling ranks whose sections were lost entirely with empty
// placeholders under salvage.
func (s *Source) admitRank(rank int) error {
	next := len(s.procs)
	if rank == next {
		return nil
	}
	if rank < next || rank >= s.head.ProcCount || !s.pol.Enabled {
		return fmt.Errorf("%w: proc %d has rank %d", trace.ErrBadFormat, next, rank)
	}
	for r := next; r < rank; r++ {
		s.placeholderRank(r)
	}
	return nil
}

// placeholderRank stands in for a rank whose whole section was lost: no
// events, unknown loss.
func (s *Source) placeholderRank(r int) {
	s.addRank(trace.ProcHeader{Rank: r, Clock: "?"}, 0, 0, RankLoss{Unknown: true})
}

// addRank appends the next rank to the index: its header (EventCount the
// count its cursors will deliver), the bounds of its event bytes and what
// indexing it lost. The index grows with the ranks found, never with the
// count the header declares, which no checksum covers.
func (s *Source) addRank(ph trace.ProcHeader, start, end int64, l RankLoss) {
	l.Rank = ph.Rank
	s.procs = append(s.procs, ph)
	s.eventOff = append(s.eventOff, start)
	s.endOff = append(s.endOff, end)
	s.loss = append(s.loss, l)
	s.events += int64(ph.EventCount)
}

// Header returns the file header.
func (s *Source) Header() trace.Header { return s.head }

// Procs returns the per-process headers. Under salvage, EventCount is
// the retained count, not the (possibly lost) declared one.
func (s *Source) Procs() []trace.ProcHeader { return s.procs }

// Ranks returns the process count.
func (s *Source) Ranks() int { return len(s.procs) }

// Events returns the total (retained) event count.
func (s *Source) Events() int64 { return s.events }

// Version reports the codec version of the file (trace.Version1 or
// trace.Version2).
func (s *Source) Version() int { return s.version }

// Salvaged reports whether the index pass recovered from corruption:
// some bytes were skipped, events lost, or loss left uncountable. A
// salvage-enabled source over an intact file reports false.
func (s *Source) Salvaged() bool { return s.salvaged }

// Report returns the corruption report of the index pass.
func (s *Source) Report() *trace.CorruptionReport { return &s.rep }

// Losses returns per-rank decode-loss records (index 0..Ranks-1). The
// engine-side counters (dropped sends, orphaned receives, broken
// collectives) are zero here; Pipeline.Run fills them in its Stats. The
// slice is a copy — callers own it.
func (s *Source) Losses() []RankLoss {
	out := make([]RankLoss, len(s.loss))
	copy(out, s.loss)
	return out
}

// eventDecoder is the per-rank section decoder: EventDecoder for v1
// bare event bytes, FrameDecoder for v2 framed blocks. Both deliver the
// events the index counted, in file order.
type eventDecoder interface {
	Decode(*trace.Event) error
	DecodeBatch([]trace.Event) (int, error)
}

// Cursor is a sequential decoder over one rank's events.
type Cursor struct {
	d         eventDecoder
	remaining int

	// A hop-indexed source has not seen its events: its cursors check
	// each rank's oracle-time order as they decode, the first of them in
	// place of the index pass.
	ordered  bool
	rank, n  int
	prevTrue float64
}

// Cursor opens a fresh decoder over rank's events. Cursors are
// independent; any number may be open at once. For salvaged v2 sources
// the cursor re-resynchronizes over the same section with the same
// policy, so it retains exactly the events the index pass counted.
func (s *Source) Cursor(rank int) *Cursor {
	off := s.eventOff[rank]
	sec := io.NewSectionReader(s.r, off, s.endOff[rank]-off)
	var d eventDecoder
	if s.version == trace.Version2 {
		d = trace.NewFrameDecoder(sec, off, rank, s.pol)
	} else {
		d = trace.NewEventDecoder(sec)
	}
	return &Cursor{d: d, remaining: s.procs[rank].EventCount, ordered: s.hopped, rank: rank}
}

// checkOrder fails when ev, the rank's next event, is earlier in oracle
// time than the one before it.
func (c *Cursor) checkOrder(ev *trace.Event) error {
	if c.n > 0 && ev.True < c.prevTrue {
		return regressed(c.rank, c.n)
	}
	c.prevTrue = ev.True
	c.n++
	return nil
}

// Next decodes the rank's next event into ev, returning io.EOF after the
// last one.
func (c *Cursor) Next(ev *trace.Event) error {
	if c.remaining == 0 {
		return io.EOF
	}
	if err := c.d.Decode(ev); err != nil {
		if err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	c.remaining--
	if c.ordered {
		return c.checkOrder(ev)
	}
	return nil
}

// slab is one fixed-capacity batch of decoded events — the unit of work
// the staged pipeline hands between decode, merge, and encode.
type slab struct {
	evs []trace.Event
}

// slabPool recycles slabs of one batch size, so the steady state of a
// pass allocates no event storage at all: the working set is the handful
// of slabs in flight between stages.
type slabPool struct {
	p sync.Pool
}

func newSlabPool(batch int) *slabPool {
	sp := &slabPool{}
	sp.p.New = func() any { return &slab{evs: make([]trace.Event, 0, batch)} }
	return sp
}

func (sp *slabPool) get() *slab { return sp.p.Get().(*slab) }

func (sp *slabPool) put(s *slab) {
	s.evs = s.evs[:0]
	sp.p.Put(s)
}

// fill decodes the rank's next batch of events into s, up to its
// capacity. It returns io.EOF (with an empty slab) once the rank is
// exhausted, and classifies a short batch exactly like Next would: a
// stream that ends while events are still owed is a truncation.
func (c *Cursor) fill(s *slab) error {
	n := min(cap(s.evs), c.remaining)
	if n == 0 {
		s.evs = s.evs[:0]
		return io.EOF
	}
	s.evs = s.evs[:n]
	m, err := c.d.DecodeBatch(s.evs)
	s.evs = s.evs[:m]
	c.remaining -= m
	if c.ordered {
		for i := range s.evs {
			if oerr := c.checkOrder(&s.evs[i]); oerr != nil {
				s.evs = s.evs[:i]
				return oerr
			}
		}
	}
	if m < n {
		if err == nil || err == io.EOF {
			return io.ErrUnexpectedEOF
		}
		return err
	}
	return nil
}

// slabMsg carries one decoded slab downstream; a non-nil err means the
// decode failed after s's events (which are still valid).
type slabMsg struct {
	s   *slab
	err error
}

// decodeRank is the per-rank decode stage: it fills pooled slabs ahead
// of the merge and sends them over a bounded channel. It exits when the
// rank is exhausted (closing ch), after sending a decode error, or when
// stop closes (the engine quit early). All state arrives as arguments —
// the goroutine captures nothing.
func decodeRank(cur *Cursor, pool *slabPool, ch chan<- slabMsg, stop <-chan struct{}) {
	defer close(ch)
	for {
		s := pool.get()
		err := cur.fill(s)
		if err == io.EOF {
			pool.put(s)
			return
		}
		select {
		case ch <- slabMsg{s: s, err: err}:
		case <-stop:
			pool.put(s)
			return
		}
		if err != nil {
			return
		}
	}
}

// slabCursor drains a decode stage one event at a time, recycling each
// slab as it empties.
type slabCursor struct {
	ch   <-chan slabMsg
	pool *slabPool
	s    *slab
	pos  int
	err  error
}

// slabCursor starts a decode-ahead stage over rank's events. Closing
// stop releases the stage's goroutine if the caller quits before
// draining it.
func (s *Source) slabCursor(rank int, pool *slabPool, stop <-chan struct{}) *slabCursor {
	ch := make(chan slabMsg, 1)
	go decodeRank(s.Cursor(rank), pool, ch, stop)
	return &slabCursor{ch: ch, pool: pool}
}

// nextRef returns a pointer to the rank's next event, or io.EOF after
// the last one. The pointee lives in the current slab: it stays valid
// until the slab drains (at most cap(evs) further nextRef calls), which
// is exactly as long as the merge engine holds a rank's head.
func (c *slabCursor) nextRef() (*trace.Event, error) {
	for c.s == nil || c.pos == len(c.s.evs) {
		if c.s != nil {
			c.pool.put(c.s)
			c.s = nil
		}
		if c.err != nil {
			return nil, c.err
		}
		msg, ok := <-c.ch
		if !ok {
			return nil, io.EOF
		}
		c.s, c.pos, c.err = msg.s, 0, msg.err
	}
	ev := &c.s.evs[c.pos]
	c.pos++
	return ev, nil
}
