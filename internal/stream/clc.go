package stream

import (
	"fmt"
	"math"

	"tsync/internal/analysis"
	"tsync/internal/clc"
	"tsync/internal/trace"
)

// clcSink replays the controlled logical clock online.
//
// Forward amortization is clc.ForwardCore verbatim: it only needs the
// previous event's original and corrected times (two scalars per rank)
// plus the incoming-edge bound, which the engine delivers resolved. The
// forward value t1 is a max of monotone bounds, so any topological
// processing order yields the same fixpoint as the in-memory replay.
//
// Backward amortization needs look-back: each forward jump at event k
// ramps events j < k whose corrected time lies within BackwardWindow
// before t1[k], capped by per-event upper bounds derived from outgoing
// edges. The sink keeps a per-rank deque of not-yet-emitted entries and
// a FIFO of pending ramp jobs, and applies a job only once every entry
// the ramp can reach has its upper bound finalized (the engine's final
// notification: all out-edge heads delivered). Entries leave the deque
// once no future ramp or clamp can move them:
//
//   - no job is pending on the rank (jobs apply strictly in order);
//   - cur <= latestT1 - BackwardWindow, so any later jump's ramp —
//     whose rampStart is t1[k] - BackwardWindow >= latestT1's successor
//     minus the window — starts above the entry (t1 grows by at least
//     MinSpacing per event);
//   - cur <= t1[next] - MinSpacing, so the order-restoring clamp, which
//     never pushes an entry below its own t1 floor, stops at the
//     successor.
//
// The emitted value is therefore the entry's settled backward-amortized
// time, bit-identical to the in-memory two-pass result: jump detection
// reads exactly times[k-1] and times[k] before any later ramp touches
// them, jobs apply in the same ascending order over the same current
// values, and the clamp sweep can never reach below the deque front.
//
// Emission is also where the After census is taken (the ledger below):
// an emitted time never changes again, so each happened-before edge is
// judged once, when the later of its two endpoints leaves its deque.
type clcSink struct {
	opt    clc.Options
	acct   *accounting
	ranks  []clcRank
	rep    *clc.Report // EventsMoved / MaxAdvance accumulate here
	spills *spillSet
	ledger
}

type clcEntry struct {
	orig, t1, cur, ub float64
	// rec names the ledger record of the entry's cross edges: 0 none,
	// > 0 an index into msgs, < 0 the negated index into colls. head
	// says which end of those edges the entry is.
	rec         int32
	final, head bool
}

type rampJob struct {
	k                        int // event index of the jump
	rampStart, rampEnd, jump float64
}

type clcRank struct {
	started          bool
	prevOrig, prevT1 float64
	deque            ring[clcEntry]
	base             int // event index of the deque's front
	jobs             ring[rampJob]
	// seen is how many entries, from the first job's target down, its
	// readiness scan found final and in reach; scanned counts every entry
	// such a scan inspected.
	seen, scanned int
	closed        bool
	w             *spillWriter
}

// newCLCSink builds the sink; lmin(tail, head) is the unscaled minimum
// latency between two ranks (Source.lmin), which the ledger needs when it
// judges a collective edge long after the engine delivered it.
func newCLCSink(ranks int, opt clc.Options, acct *accounting, rep *clc.Report, spills *spillSet, lmin func(tail, head int) float64) (*clcSink, error) {
	s := &clcSink{opt: opt, acct: acct, ranks: make([]clcRank, ranks), rep: rep, spills: spills}
	s.ledger = ledger{lmin: lmin, insts: map[instKey]int32{}, parked: map[EventRef]int32{}}
	s.msgs.recs, s.colls.recs = make([]endpoint, 1), make([]collRec, 1)
	for r := range s.ranks {
		w, err := spills.writer(r)
		if err != nil {
			return nil, err
		}
		s.ranks[r].w = w
	}
	return s, nil
}

func (s *clcSink) event(rank, idx int, ev *trace.Event, mapped float64, in []InEdge) (EdgeData, error) {
	r := &s.ranks[rank]
	inBound := math.Inf(-1)
	for _, e := range in {
		if b := e.Data.Value + s.opt.Gamma*e.LMin; b > inBound {
			inBound = b
		}
	}
	t1 := clc.ForwardCore(mapped, r.prevOrig, r.prevT1, inBound, !r.started, s.opt)

	if r.started && s.opt.BackwardWindow > 0 {
		deltaPrev := r.prevT1 - r.prevOrig
		deltaCur := t1 - mapped
		jump := deltaCur - deltaPrev
		if jump > s.opt.MinSpacing {
			rampEnd := t1
			rampStart := rampEnd - s.opt.BackwardWindow
			if rampStart < rampEnd {
				r.jobs.push(rampJob{k: idx, rampStart: rampStart, rampEnd: rampEnd, jump: jump})
			}
		}
	}

	ent := clcEntry{orig: mapped, t1: t1, cur: t1, ub: math.Inf(1), head: len(in) > 0}
	if ent.head {
		var err error
		if ent.rec, err = s.join(rank, ev, in); err != nil {
			return EdgeData{}, err
		}
	}
	r.deque.push(ent)
	if err := s.acct.add(rank, 1); err != nil {
		return EdgeData{}, err
	}
	for _, e := range in {
		s.resolveUB(e.From, t1-s.opt.Gamma*e.LMin)
	}
	r.prevOrig, r.prevT1, r.started = mapped, t1, true
	if err := s.pump(rank); err != nil {
		return EdgeData{}, err
	}
	return EdgeData{Raw: ev.Time, Mapped: mapped, Value: t1}, nil
}

// resolveUB lowers the upper bound of an edge tail: it may not be pushed
// past head_t1 - γ·l_min (the same conservative bound the in-memory
// backward pass computes from post-forward times).
func (s *clcSink) resolveUB(ref EventRef, bound float64) {
	r := &s.ranks[ref.Rank]
	pos := ref.Idx - r.base
	if pos < 0 {
		// already emitted: only entries never reached by any ramp are
		// emitted before their bounds settle, so the bound is moot
		return
	}
	if e := r.deque.at(pos); bound < e.ub {
		e.ub = bound
	}
}

// final marks an entry's out-edges complete, possibly unblocking jobs.
func (s *clcSink) final(ref EventRef) error {
	r := &s.ranks[ref.Rank]
	pos := ref.Idx - r.base
	if pos < 0 {
		// emitted before its out-edges were complete: whatever it parked
		// has no further head to wait for
		if id, ok := s.parked[ref]; ok {
			delete(s.parked, ref)
			s.release(id)
		}
		return nil
	}
	e := r.deque.at(pos)
	e.final = true
	if e.rec < 0 && !e.head {
		s.release(e.rec)
	}
	return s.pump(ref.Rank)
}

func (s *clcSink) rankDone(rank int) error {
	s.ranks[rank].closed = true
	return s.pump(rank)
}

// pump applies every ready ramp job in order, then emits settled
// entries from the deque front. A job is ready once every entry its ramp
// reaches is final; a blocked job is asked again on every event and final
// of its rank, and its scan resumes at the entry that stopped it. That
// reads what a fresh scan would: the entries above were seen final and
// in reach, final only ever turns true, and no cur moves and nothing
// leaves the deque while a job waits (jobs apply strictly in order).
func (s *clcSink) pump(rank int) error {
	r := &s.ranks[rank]
	for r.jobs.len() > 0 {
		job := *r.jobs.at(0)
		pos := job.k - 1 - r.base
		if pos < 0 {
			return fmt.Errorf("stream: clc ramp target below deque base (rank %d)", rank)
		}
		ready := true
		j := pos - r.seen
		for ; j >= 0; j-- {
			r.scanned++
			e := r.deque.at(j)
			if e.cur <= job.rampStart {
				break
			}
			if !e.final {
				ready = false
				break
			}
		}
		if !ready {
			r.seen = pos - j
			break
		}
		r.seen = 0
		for j := pos; j >= 0; j-- {
			e := r.deque.at(j)
			if e.cur <= job.rampStart {
				break
			}
			desired := job.jump * (e.cur - job.rampStart) / (job.rampEnd - job.rampStart)
			if desired <= 0 {
				continue
			}
			allowed := desired
			if slack := e.ub - e.cur; slack < allowed {
				allowed = slack
			}
			if allowed > 0 {
				e.cur += allowed
			}
		}
		next := r.deque.at(pos + 1).cur
		for j := pos; j >= 0; j-- {
			e := r.deque.at(j)
			if m := next - s.opt.MinSpacing; e.cur > m {
				e.cur = m
			}
			if e.cur < e.t1 {
				e.cur = e.t1
			}
			next = e.cur
		}
		r.jobs.pop()
	}

	for r.jobs.len() == 0 && r.deque.len() > 0 {
		front := *r.deque.at(0)
		if !r.closed {
			if r.deque.len() < 2 {
				// the newest entry may still be ramped by the next jump
				break
			}
			if front.cur > r.prevT1-s.opt.BackwardWindow {
				break
			}
			if front.cur > r.deque.at(1).t1-s.opt.MinSpacing {
				break
			}
		}
		if err := r.w.write(front.cur); err != nil {
			return err
		}
		if front.cur != front.orig { //tsync:exact — EventsMoved counts bit-level changes, mirroring clc.Correct
			s.rep.EventsMoved++
			if adv := front.cur - front.orig; adv > s.rep.MaxAdvance {
				s.rep.MaxAdvance = adv
			}
		}
		if front.rec != 0 || !front.final {
			s.settle(EventRef{Rank: rank, Idx: r.base}, front)
		}
		r.deque.pop()
		r.base++
		if err := s.acct.add(rank, -1); err != nil {
			return err
		}
	}
	return nil
}

func (s *clcSink) flush() error {
	for rank := range s.ranks {
		r := &s.ranks[rank]
		if !r.closed {
			return fmt.Errorf("stream: clc flush with rank %d still open", rank)
		}
		if err := s.pump(rank); err != nil {
			return err
		}
		if r.jobs.len() > 0 || r.deque.len() > 0 {
			return fmt.Errorf("stream: clc flush left rank %d with %d jobs, %d entries (missing finality)", rank, r.jobs.len(), r.deque.len())
		}
		if err := r.w.close(); err != nil {
			return err
		}
	}
	if m, c := s.msgs.live(), s.colls.live(); m > 0 || c > 0 || len(s.parked) > 0 {
		return fmt.Errorf("stream: clc flush left %d edge records, %d instance records, %d parked finals (missing finality)", m, c, len(s.parked))
	}
	return nil
}

// ledger takes the After census inside the CLC walk (DESIGN.md §6). A
// count over happened-before edges needs only each edge's two settled
// times, so an edge is judged when its later endpoint is emitted, and the
// earlier one's time waits in a record until then:
//
//   - a message's send and receive entries share one endpoint in msgs;
//   - a collective instance has one collRec, found by (Comm, Instance)
//     while the engine holds the instance open: the begins its ends have
//     edges from, in the order ends first named them, and per end how
//     long that list was when it arrived. Ends only ever see more begins,
//     so an end's edges come from exactly that prefix (less its own
//     rank) and there is no per-edge state;
//   - a tail emitted before the engine's final for it (more heads may
//     come) parks its record under its EventRef until a head claims it
//     or the final says none will.
//
// A record lives only while one of its entries is in a deque or the
// engine still holds its tail, all of which the window accounting
// charges: the ledger is O(pending), and records recycle.
type ledger struct {
	lmin       func(tail, head int) float64
	after      analysis.Census // the edge counts; the sink sees no event totals
	violations int
	msgs       recPool[endpoint]
	colls      recPool[collRec]   // entries name these by negated index
	insts      map[instKey]int32  // open instance → its record
	parked     map[EventRef]int32 // emitted, not yet final tail → its record
	// A new collRec's lists are carved from these at the widest size any
	// record has reached. A rank whose jobs never all drain holds every
	// entry, and so every record, to its end: each instance then needs a
	// new record, which must not cost an allocation per list doubling.
	points arena[endpoint]
	saws   arena[int32]
	width  int
}

// arena carves slices of a given capacity out of shared chunks: one
// allocation per chunk, which lives as long as any slice carved from it.
type arena[T any] struct{ chunk []T }

func (a *arena[T]) carve(n int) []T {
	if cap(a.chunk)-len(a.chunk) < n {
		a.chunk = make([]T, 0, max(n, 4096))
	}
	at := len(a.chunk)
	a.chunk = a.chunk[:at+n]
	return a.chunk[at : at : at+n]
}

// endpoint is one end of an edge and, once settled, its emitted time. In
// msgs it is whichever end of the message left its deque first.
type endpoint struct {
	t       float64
	rank    int32
	settled bool
}

type collRec struct {
	key          instKey
	begins, ends []endpoint
	saw          []int32 // ends[i]'s edges come from begins[:saw[i]]
	// open counts the reasons to stay: one per unsettled begin or end, one
	// per listed begin the engine has not finalized (another end may come).
	open int32
}

// recPool hands out records by index (never 0) and takes them back; a
// recycled record is reused as it was put.
type recPool[T any] struct {
	recs []T // [0] unused
	free []int32
}

func (p *recPool[T]) get() int32 {
	if n := len(p.free); n > 0 {
		id := p.free[n-1]
		p.free = p.free[:n-1]
		return id
	}
	p.recs = append(p.recs, *new(T))
	return int32(len(p.recs) - 1)
}

func (p *recPool[T]) put(id int32) { p.free = append(p.free, id) }
func (p *recPool[T]) live() int    { return len(p.recs) - 1 - len(p.free) }

// release drops the engine's hold on a tail's record: an unclaimed parked
// time goes; an instance is complete (the engine finalizes its begins
// together, and only then), so its key is free for the next instance to
// reuse and its record loses one reason to stay.
func (s *clcSink) release(id int32) {
	if id > 0 {
		s.msgs.recs[id] = endpoint{}
		s.msgs.put(id)
		return
	}
	delete(s.insts, s.colls.recs[-id].key)
	s.closeOne(id)
}

func (s *clcSink) closeOne(id int32) {
	c := &s.colls.recs[-id]
	if c.open--; c.open == 0 {
		c.begins, c.ends, c.saw = c.begins[:0], c.ends[:0], c.saw[:0]
		s.colls.put(-id)
	}
}

// edge judges one edge on its two settled times, exactly as censusSink
// judges the mapped times of a walk.
func (s *clcSink) edge(tail, head endpoint, logical bool) {
	lmin := s.lmin(int(tail.rank), int(head.rank))
	countEdge(&s.after, tail.t, head.t, lmin, logical)
	if clc.Violated(tail.t, head.t, lmin, s.opt.Gamma) {
		s.violations++
	}
}

// tailRec finds an edge tail's record: on its deque entry while it is
// pending (0: none yet), in parked once it was emitted. A tail in neither
// was finalized before this head arrived, which the engine never does.
func (s *clcSink) tailRec(ref EventRef) (int32, *clcEntry, error) {
	r := &s.ranks[ref.Rank]
	if pos := ref.Idx - r.base; pos >= 0 {
		e := r.deque.at(pos)
		return e.rec, e, nil
	}
	id, ok := s.parked[ref]
	if !ok {
		return 0, nil, fmt.Errorf("stream: clc ledger has no settled time for edge tail (rank %d event %d)", ref.Rank, ref.Idx)
	}
	return id, nil, nil
}

// join enters an arriving head's in-edges in the ledger and returns the
// record its entry will carry. The engine delivers either one message
// edge or the logical edges of one collective end.
func (s *clcSink) join(rank int, ev *trace.Event, in []InEdge) (int32, error) {
	if !in[0].Logical {
		id, send, err := s.tailRec(in[0].From)
		switch {
		case err != nil:
			return 0, err
		case send != nil:
			send.rec = s.msgs.get()
			return send.rec, nil
		}
		delete(s.parked, in[0].From)
		return id, nil
	}
	key := instKey{ev.Comm, ev.Instance}
	id := s.insts[key]
	if id == 0 {
		id = -s.colls.get()
		s.insts[key] = id
		s.colls.recs[-id].key = key
	}
	c := &s.colls.recs[-id]
	if cap(c.ends) == 0 { // a new record, not a recycled one
		n := max(len(in)+1, s.width)
		c.begins, c.ends, c.saw = s.points.carve(n), s.points.carve(n), s.saws.carve(n)
	}
	for _, e := range in {
		held, begin, err := s.tailRec(e.From)
		switch {
		case err != nil:
			return 0, err
		case held < 0: // an earlier end listed it
		case begin != nil:
			begin.rec = id
			c.begins = append(c.begins, endpoint{rank: int32(e.From.Rank)})
			c.open += 2
		default: // parked unnamed: its time moves into the list
			c.begins = append(c.begins, s.msgs.recs[held])
			s.release(held)
			s.parked[e.From] = id
			c.open++
		}
	}
	c.ends = append(c.ends, endpoint{rank: int32(rank)})
	c.saw = append(c.saw, int32(len(c.begins)))
	c.open++
	s.width = max(s.width, len(c.begins), len(c.ends))
	return id, nil
}

// find returns the position of rank's endpoint, which join put there.
func find(ps []endpoint, rank int32) int {
	i := 0
	for ps[i].rank != rank {
		i++
	}
	return i
}

// settle records e's emitted time in the ledger and judges every edge
// whose other endpoint settled earlier.
func (s *clcSink) settle(ref EventRef, e clcEntry) {
	mine := endpoint{t: e.cur, rank: int32(ref.Rank), settled: true}
	switch {
	case e.rec == 0: // a tail leaving before any head named it
		id := s.msgs.get()
		s.msgs.recs[id] = mine
		s.parked[ref] = id
	case e.rec > 0:
		switch other := s.msgs.recs[e.rec]; {
		case !other.settled:
			s.msgs.recs[e.rec] = mine
		case e.head:
			s.edge(other, mine, false)
			s.release(e.rec)
		default:
			s.edge(mine, other, false)
			s.release(e.rec)
		}
	case e.head:
		c := &s.colls.recs[-e.rec]
		i := find(c.ends, mine.rank)
		c.ends[i] = mine
		for _, b := range c.begins[:c.saw[i]] {
			if b.settled && b.rank != mine.rank {
				s.edge(b, mine, true)
			}
		}
		s.closeOne(e.rec)
	default:
		c := &s.colls.recs[-e.rec]
		i := find(c.begins, mine.rank)
		c.begins[i] = mine
		// the rank's own end is behind it in the deque: not settled yet
		for j, en := range c.ends {
			if en.settled && int(c.saw[j]) > i {
				s.edge(mine, en, true)
			}
		}
		if !e.final {
			s.parked[ref] = e.rec
		}
		s.closeOne(e.rec)
	}
}

// teeSink fans one engine walk out to two sinks; the second sink's edge
// data is what travels along the graph.
type teeSink struct{ a, b sink }

func (t teeSink) event(rank, idx int, ev *trace.Event, mapped float64, in []InEdge) (EdgeData, error) {
	if _, err := t.a.event(rank, idx, ev, mapped, in); err != nil {
		return EdgeData{}, err
	}
	return t.b.event(rank, idx, ev, mapped, in)
}

func (t teeSink) final(ref EventRef) error {
	if err := t.a.final(ref); err != nil {
		return err
	}
	return t.b.final(ref)
}

func (t teeSink) rankDone(rank int) error {
	if err := t.a.rankDone(rank); err != nil {
		return err
	}
	return t.b.rankDone(rank)
}

func (t teeSink) flush() error {
	if err := t.a.flush(); err != nil {
		return err
	}
	return t.b.flush()
}
