package stream

import (
	"cmp"
	"context"
	"fmt"
	"io"
	"math/bits"
	"slices"

	"tsync/internal/topology"
	"tsync/internal/trace"
)

// EventRef names one event in a trace (mirrors lclock.EventRef without
// importing it, so the dependency points analysis-ward only).
type EventRef struct {
	Rank, Idx int
}

// EdgeData is the payload carried along a happened-before edge from its
// tail to its head: the tail's timestamps plus one sink-defined value
// (the CLC forward time, a Lamport clock, ...).
type EdgeData struct {
	Raw    float64 // original local timestamp of the tail event
	Mapped float64 // tail timestamp after this pass's time mapper
	Value  float64 // sink-carried value
}

// InEdge is one resolved incoming happened-before edge of an event.
type InEdge struct {
	From EventRef
	Data EdgeData
	// LMin is the unscaled minimum message latency between the two
	// cores (Eq. 1's l_min); sinks apply their own γ.
	LMin float64
	// Logical marks collective-derived edges ("logical messages").
	Logical bool
}

// sink consumes the merged event stream. The engine guarantees: event is
// called exactly once per event, in a topological order of the
// happened-before graph, with every incoming cross edge resolved; final
// is called exactly once per event, after every out-edge's head has been
// delivered (immediately for events with no cross out-edges); rankDone
// after a rank's last event; flush after everything.
type sink interface {
	event(rank, idx int, ev *trace.Event, mapped float64, in []InEdge) (EdgeData, error)
	final(ref EventRef) error
	rankDone(rank int) error
	flush() error
}

// chanKey identifies a FIFO message channel (MPI non-overtaking rule),
// exactly like trace.Messages.
type chanKey struct {
	from, to, tag, comm int32
}

type sendEntry struct {
	ref  EventRef
	data EdgeData
	// tru is the send's oracle time: under salvage it guards FIFO
	// matching against pairing a receive with a send that happens later
	// (the real sender having been lost in a gap).
	tru float64
}

type instKey struct {
	comm, inst int32
}

// instance is one open collective operation; instances and their slices
// recycle through engine.free.
type instance struct {
	inst int32
	comm *commState
	op   trace.CollOp
	root int32
	// begins holds the ranks that have begun, ascending by ref.Rank: the
	// order of every in-edge list and finalization loop, so float folds
	// and error choices never depend on arrival order.
	begins []sendEntry
	// ends has bit r set once rank r delivered its end (every end has a
	// begin: process turns the others away). endsSeen counts them, and
	// guards against orderings the oracle-time merge cannot support (an
	// edge tail arriving after one of its heads).
	ends     bitset
	endsSeen int
}

// begin returns the position of rank's entry in ins.begins, or where it
// would be inserted to keep the slice ascending.
func (ins *instance) begin(rank int) (int, bool) {
	return slices.BinarySearchFunc(ins.begins, rank, func(b sendEntry, rank int) int { return b.ref.Rank - rank })
}

// bitset is a set of small ints sized by its largest member, not by the
// rank count.
type bitset []uint64

func (b bitset) has(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(i&63)) != 0
}

func (b *bitset) set(i int) {
	w := i >> 6
	for len(*b) <= w {
		*b = append(*b, 0)
	}
	(*b)[w] |= 1 << (i & 63)
}

// word returns members 64w..64w+63 as a mask.
func (b bitset) word(w int) uint64 {
	if w < len(b) {
		return b[w]
	}
	return 0
}

// commState is one communicator's collective bookkeeping.
type commState struct {
	id int32
	// open lists the open instances in arrival order.
	open []*instance
	// last[rank] is the highest instance rank has touched (-1 = never).
	last []int32
}

// channels maps each message channel to its unmatched sends, oldest
// first. A drained channel keeps its entry for its next message (a rank
// talks to a few partners on a few tags, over and over) while the map
// holds at most limit entries. Past that (a tag per message, an
// all-to-all over thousands of ranks) it leaves the map and its queue
// goes to a free list, so the map is bounded by limit plus the channels
// in flight, never by the trace's length.
type channels struct {
	m     map[chanKey]*ring[sendEntry]
	free  []*ring[sendEntry]
	limit int
}

func newChannels(ranks int) channels {
	return channels{m: map[chanKey]*ring[sendEntry]{}, limit: max(1024, 16*ranks)}
}

// push queues a send on k's channel, opening it if need be.
func (c *channels) push(k chanKey, se sendEntry) {
	q := c.m[k]
	if q == nil {
		if n := len(c.free); n > 0 {
			q, c.free = c.free[n-1], c.free[:n-1]
		} else {
			q = new(ring[sendEntry])
		}
		c.m[k] = q
	}
	q.push(se)
}

// pop removes the oldest send of k's channel q.
func (c *channels) pop(k chanKey, q *ring[sendEntry]) {
	if q.pop(); q.len() == 0 && len(c.m) > c.limit {
		delete(c.m, k)
		c.free = append(c.free, q)
	}
}

// collClass partitions collective ops by their edge semantics.
type collClass int

const (
	oneToN collClass = iota // Bcast, Scatter: root begin → member ends
	nToOne                  // Reduce, Gather: member begins → root end
	nToN                    // Barrier, Allreduce, Allgather, Alltoall
)

func classOf(op trace.CollOp) collClass {
	switch op {
	case trace.OpBcast, trace.OpScatter:
		return oneToN
	case trace.OpReduce, trace.OpGather:
		return nToOne
	}
	return nToN
}

// engine merges the per-rank event streams in (True, rank) order — a
// topological order of the happened-before graph under the simulator's
// oracle-time guarantee — matching messages and collectives on the fly
// and feeding the sink.
type engine struct {
	src    *Source
	mapper timeMapper
	snk    sink
	opt    Options
	acct   *accounting

	// sal tolerates salvage fallout (see SourceOptions.Salvage); loss
	// receives the per-rank counters when non-nil. lossSink absorbs
	// counts when loss is nil.
	sal      bool
	loss     []RankLoss
	lossSink RankLoss

	idx  []int
	done []bool

	fifos channels
	// comms holds the communicators seen so far, ascending by id: the
	// order finishRank re-checks them in.
	comms []*commState
	free  []*instance

	inBuf []InEdge
}

// head is one merge source's current event.
type head struct {
	ev *trace.Event
	// tru is ev.True, beside the rank so a compare loads no event.
	tru  float64
	rank int32
	// src is the slot the heap's owner refills this head from: a rank, a
	// shard-local rank, or a shard.
	src int32
}

func (a *head) before(b *head) bool {
	if a.tru != b.tru { //tsync:exact — heap order on oracle times; ties break by rank below
		return a.tru < b.tru
	}
	return a.rank < b.rank
}

// headHeap is the k-way merge's binary min-heap, one head per live source
// ordered by (True, rank): the flat merge's, each shard worker's and the
// tree root's. A merge step reads the top and, once its event has been
// consumed, advances it: the source's next head takes the top's slot and
// sifts down once, where pop-then-push sifted twice. The sequence cannot
// differ from any other correct heap's: sources never share a rank, so
// (True, rank) is a strict total order over the live heads and the
// minimum is unique at every step.
type headHeap []head

// push adds a source's first head.
func (h *headHeap) push(x head) {
	s := append(*h, x)
	*h = s
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if !s[i].before(&s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
}

// advance replaces the top with its source's next head, or removes it
// when the source is exhausted (ev == nil).
func (h *headHeap) advance(ev *trace.Event, rank int32) {
	s := *h
	if ev == nil {
		last := len(s) - 1
		s[0] = s[last]
		s = s[:last]
		*h = s
	} else {
		s[0].ev, s[0].tru, s[0].rank = ev, ev.True, rank
	}
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(s) {
			break
		}
		if rgt := c + 1; rgt < len(s) && s[rgt].before(&s[c]) {
			c = rgt
		}
		if !s[c].before(&s[i]) {
			break
		}
		s[i], s[c] = s[c], s[i]
		i = c
	}
}

// merged is the engine's view of the (True, rank)-ordered event stream.
// Two implementations exist: flatMerger (one heap over per-rank decode
// stages — the historical path) and treeMerger (per-shard sub-merges
// feeding a root merge — shard.go). Both deliver exactly the same event
// sequence; only wall time and memory shape differ.
//
// prime is called once per rank, in rank order, before the first next;
// it surfaces rank startup decode errors in deterministic rank order.
// next returns the next event in merged order — the pointee stays valid
// until the following next call — and io.EOF once every rank is
// exhausted. A merger defers advancing the source of the event it just
// returned until the next call, so a refill error surfaces after the
// previous event was fully processed, exactly where the historical
// advance-after-process loop surfaced it.
type merged interface {
	prime(r int) error
	next() (rank int, ev *trace.Event, err error)
}

// walk merges src's ranks and feeds snk. ctx is checked between events
// (every ctxCheckEvery merge steps), so cancellation surfaces within one
// slab's worth of work; the deferred stop release makes every decode and
// shard-merge goroutine exit before walk returns. acct is the job's
// (see begin); its Stats.Loss, when non-nil, receives the engine-side
// salvage counters (one entry per rank).
//
// Rank completion is count-driven: the cursors deliver exactly the
// retained event counts the index pass recorded (Source.Procs), so a
// rank is done the moment its count of events has been processed —
// equivalent to the historical cursor-EOF signal, but independent of
// which merger feeds the engine.
func walk(ctx context.Context, src *Source, m timeMapper, snk sink, acct *accounting) error {
	opt := acct.opt
	n := src.Ranks()
	// stop tears the merge stages down if the walk exits before
	// draining them (sink error, malformed trace, cancellation).
	stop := make(chan struct{})
	defer close(stop)
	e := &engine{
		src: src, mapper: m, snk: snk, opt: opt,
		acct:  acct,
		sal:   src.pol.Enabled,
		loss:  acct.stats.Loss,
		idx:   make([]int, n),
		done:  make([]bool, n),
		fifos: newChannels(n),
	}
	var mg merged
	if shards := shardCount(n, opt.Shards); shards > 1 {
		mg = newTreeMerger(src, opt, shards, stop)
	} else {
		mg = newFlatMerger(src, opt, stop)
	}
	remaining := make([]int, n)
	for r := 0; r < n; r++ {
		remaining[r] = src.Procs()[r].EventCount
	}
	for r := 0; r < n; r++ {
		if err := mg.prime(r); err != nil {
			return err
		}
		if remaining[r] == 0 {
			// a rank with no events completes instances it will never join
			if err := e.finishRank(r); err != nil {
				return err
			}
		}
	}
	ticks := 0
	for {
		if ticks&(ctxCheckEvery-1) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		ticks++
		r, ev, err := mg.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if err := e.process(r, ev); err != nil {
			return err
		}
		e.idx[r]++
		if remaining[r]--; remaining[r] == 0 {
			if err := e.finishRank(r); err != nil {
				return err
			}
		}
	}
	if e.sal {
		if err := e.cleanupSalvage(); err != nil {
			return err
		}
	} else {
		// report the first failure in key order, not map order, so a
		// damaged trace produces the same error on every run
		if keys := e.fifos.pending(); len(keys) > 0 {
			k := keys[0]
			return fmt.Errorf("stream: %d unmatched Sends from %d to %d tag %d", e.fifos.m[k].len(), k.from, k.to, k.tag)
		}
		if open := e.openInstances(); len(open) > 0 {
			ins := open[0]
			return fmt.Errorf("stream: collective comm %d instance %d incomplete at end of trace (%d begins, %d ends)",
				ins.comm.id, ins.inst, len(ins.begins), ins.endsSeen)
		}
	}
	return e.snk.flush()
}

// ctxCheckEvery is how many merge steps go between context checks:
// frequent enough that cancellation lands within a slab's worth of work,
// rare enough that the atomic load disappears in the merge cost.
const ctxCheckEvery = 1024

// lossAt returns the rank's loss record, or a discard slot when the
// walk does not collect counters.
func (e *engine) lossAt(r int) *RankLoss {
	if e.loss == nil || r < 0 || r >= len(e.loss) {
		return &e.lossSink
	}
	return &e.loss[r]
}

// cleanupSalvage releases the pending state a damaged trace legitimately
// leaves behind — sends whose receive was lost, collectives missing
// participants — finalizing every held entry so sinks with finality
// bookkeeping (the CLC deque) can drain. Iteration is over sorted keys:
// the per-rank finalization order must not depend on map order.
func (e *engine) cleanupSalvage() error {
	for _, k := range e.fifos.pending() {
		for q := e.fifos.m[k]; q.len() > 0; q.pop() {
			se := q.at(0)
			e.lossAt(se.ref.Rank).DroppedSends++
			if err := e.snk.final(se.ref); err != nil {
				return err
			}
			if err := e.acct.add(se.ref.Rank, -1); err != nil {
				return err
			}
		}
	}
	for _, ins := range e.openInstances() {
		for i := range ins.begins {
			ref := ins.begins[i].ref
			e.lossAt(ref.Rank).BrokenCollectives++
			if err := e.snk.final(ref); err != nil {
				return err
			}
			if err := e.acct.add(ref.Rank, -1); err != nil {
				return err
			}
		}
		for w, word := range ins.ends {
			for ; word != 0; word &= word - 1 {
				r := w<<6 + bits.TrailingZeros64(word)
				e.lossAt(r).BrokenCollectives++
				if err := e.acct.add(r, -1); err != nil {
					return err
				}
			}
		}
	}
	for _, cs := range e.comms {
		cs.open = nil
	}
	return nil
}

// pending returns the keys of the channels holding unmatched sends,
// ordered by (from, to, tag, comm), so every per-channel walk is
// independent of map visit order.
func (c *channels) pending() []chanKey {
	var keys []chanKey
	for k, q := range c.m {
		if q.len() > 0 {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, func(a, b chanKey) int {
		return cmp.Or(cmp.Compare(a.from, b.from), cmp.Compare(a.to, b.to), cmp.Compare(a.tag, b.tag), cmp.Compare(a.comm, b.comm))
	})
	return keys
}

// openInstances returns the open instances ordered by (comm, inst).
func (e *engine) openInstances() []*instance {
	var all []*instance
	for _, cs := range e.comms {
		at := len(all)
		all = append(all, cs.open...)
		slices.SortFunc(all[at:], func(a, b *instance) int { return cmp.Compare(a.inst, b.inst) })
	}
	return all
}

// finishRank records a rank's exhaustion: the sink's rankDone callback
// fires, then every communicator's open instances are re-checked — a
// finished rank can complete instances it will never join. Communicators
// go in ascending order, so the finalization order across them and which
// "never ended" error surfaces do not depend on map order.
func (e *engine) finishRank(r int) error {
	e.done[r] = true
	if err := e.snk.rankDone(r); err != nil {
		return err
	}
	for _, cs := range e.comms {
		if err := e.completeInstances(cs); err != nil {
			return err
		}
	}
	return nil
}

// flatMerger is the single-heap merge: one decode-ahead stage per rank,
// all heads in one headHeap. The rank whose event the last next returned
// is advanced on the following call, so a mid-stream decode error
// surfaces after the previous event was processed — the exact position
// the historical advance-after-process loop gave it.
type flatMerger struct {
	cursors []*slabCursor
	h       headHeap
	taken   bool // the top was returned and is advanced before the next read
}

func newFlatMerger(src *Source, opt Options, stop chan struct{}) *flatMerger {
	pool := newSlabPool(opt.Batch)
	f := &flatMerger{cursors: make([]*slabCursor, src.Ranks())}
	for r := range f.cursors {
		f.cursors[r] = src.slabCursor(r, pool, stop)
	}
	return f
}

func (f *flatMerger) prime(r int) error {
	ev, err := f.cursors[r].nextRef()
	if err == io.EOF {
		return nil
	}
	if err != nil {
		return err
	}
	f.h.push(head{ev: ev, tru: ev.True, rank: int32(r), src: int32(r)})
	return nil
}

func (f *flatMerger) next() (int, *trace.Event, error) {
	if f.taken {
		f.taken = false
		r := f.h[0].rank
		// at io.EOF ev is nil and the rank leaves the heap; walk's count
		// bookkeeping already fired its rankDone
		ev, err := f.cursors[r].nextRef()
		if err != nil && err != io.EOF {
			return 0, nil, err
		}
		f.h.advance(ev, r)
	}
	if len(f.h) == 0 {
		return 0, nil, io.EOF
	}
	f.taken = true
	return int(f.h[0].rank), f.h[0].ev, nil
}

// lmin returns the unscaled minimum latency between two ranks' cores.
func (s *Source) lmin(a, b int) float64 {
	if a < 0 || a >= len(s.procs) || b < 0 || b >= len(s.procs) {
		return 0
	}
	return s.head.MinLatency[topology.Relate(s.procs[a].Core, s.procs[b].Core)]
}

func (e *engine) process(r int, ev *trace.Event) error {
	idx := e.idx[r]
	mapped, err := e.mapper.mapTime(r, idx, ev)
	if err != nil {
		return err
	}
	in := e.inBuf[:0]
	var matchedSend EventRef
	var haveMatch bool
	// ins is the instance a CollEnd joins. It stays nil for an orphan end,
	// one that cannot join any instance (salvage only): that is treated as
	// a local event, bypassing the collective bookkeeping below.
	var ins *instance

	switch ev.Kind {
	case trace.Recv:
		k := chanKey{from: ev.Partner, to: int32(r), tag: ev.Tag, comm: ev.Comm}
		q := e.fifos.m[k]
		matched := q != nil && q.len() > 0
		if matched && e.sal && q.at(0).tru >= ev.True { //tsync:exact — genuine pairs strictly increase oracle time; a head at or past the receive belongs to a later message whose real receive is still ahead
			matched = false
		}
		if !matched {
			if !e.sal {
				return fmt.Errorf("stream: rank %d event %d: Recv from %d tag %d has no matching Send processed (unmatched message or oracle-order violation)", r, idx, ev.Partner, ev.Tag)
			}
			// the send was lost in a gap: keep the receive as a local
			// event with no incoming edge
			e.lossAt(r).OrphanRecvs++
			break
		}
		se := *q.at(0)
		e.fifos.pop(k, q)
		if err := e.acct.add(se.ref.Rank, -1); err != nil {
			return err
		}
		in = append(in, InEdge{From: se.ref, Data: se.data, LMin: e.src.lmin(se.ref.Rank, r)})
		matchedSend, haveMatch = se.ref, true
	case trace.CollEnd:
		ins, err = e.instanceFor(r, ev, false)
		if err == nil {
			if _, ok := ins.begin(r); !ok {
				err = fmt.Errorf("stream: rank %d ended collective comm %d instance %d without beginning it", r, ev.Comm, ev.Instance)
			} else if ins.ends.has(r) {
				err = fmt.Errorf("stream: rank %d has duplicate CollEnd for comm %d instance %d", r, ev.Comm, ev.Instance)
			}
		}
		if err != nil {
			if !e.sal {
				return err
			}
			// the begin (or the whole instance) was lost in a gap: keep
			// the end as a local event
			e.lossAt(r).BrokenCollectives++
			ins = nil
			break
		}
		root := int(ins.root)
		switch classOf(ins.op) {
		case oneToN:
			if r != root {
				if i, ok := ins.begin(root); ok {
					rb := &ins.begins[i]
					in = append(in, InEdge{From: rb.ref, Data: rb.data, LMin: e.src.lmin(root, r), Logical: true})
				}
			}
		case nToOne:
			if r == root {
				in = e.beginEdges(in, ins, r)
			}
		case nToN:
			in = e.beginEdges(in, ins, r)
		}
	}

	data, err := e.snk.event(r, idx, ev, mapped, in)
	if err != nil {
		return err
	}
	e.inBuf = in[:0]
	ref := EventRef{Rank: r, Idx: idx}

	switch ev.Kind {
	case trace.Send:
		e.fifos.push(chanKey{from: int32(r), to: ev.Partner, tag: ev.Tag, comm: ev.Comm}, sendEntry{ref: ref, data: data, tru: ev.True})
		if err := e.acct.add(r, 1); err != nil {
			return err
		}
	case trace.Recv:
		if haveMatch {
			// the send's only out-edge has been delivered
			if err := e.snk.final(matchedSend); err != nil {
				return err
			}
		}
		if err := e.snk.final(ref); err != nil {
			return err
		}
	case trace.CollBegin:
		ins, err = e.instanceFor(r, ev, true)
		var at int
		if err == nil {
			var dup bool
			if at, dup = ins.begin(r); dup {
				err = fmt.Errorf("stream: rank %d has duplicate CollBegin for comm %d instance %d", r, ev.Comm, ev.Instance)
			} else if ins.endsSeen > 0 && classOf(ins.op) != oneToN && !e.sal {
				err = fmt.Errorf("stream: rank %d began collective comm %d instance %d after an end was processed (oracle-order violation)", r, ev.Comm, ev.Instance)
			}
		}
		if err != nil {
			if !e.sal {
				return err
			}
			// an unjoinable begin (duplicate, or op mismatch from a
			// half-lost instance) stays a local event
			e.lossAt(r).BrokenCollectives++
			if ferr := e.snk.final(ref); ferr != nil {
				return ferr
			}
			break
		}
		ins.begins = slices.Insert(ins.begins, at, sendEntry{ref: ref, data: data, tru: ev.True})
		if err := e.acct.add(r, 1); err != nil {
			return err
		}
		if err := e.touchColl(r, ins); err != nil {
			return err
		}
	case trace.CollEnd:
		if ins == nil {
			if err := e.snk.final(ref); err != nil {
				return err
			}
			break
		}
		ins.ends.set(r)
		ins.endsSeen++
		if err := e.acct.add(r, 1); err != nil {
			return err
		}
		if err := e.snk.final(ref); err != nil {
			return err
		}
		if err := e.touchColl(r, ins); err != nil {
			return err
		}
	default:
		if err := e.snk.final(ref); err != nil {
			return err
		}
	}
	return nil
}

// beginEdges appends one logical in-edge per begin of ins other than r's
// own. Ascending rank, the begins' order, is the edge order: sinks fold
// the in-edges in slice order, and float folds are order-sensitive.
func (e *engine) beginEdges(in []InEdge, ins *instance, r int) []InEdge {
	for i := range ins.begins {
		b := &ins.begins[i]
		if q := b.ref.Rank; q != r {
			in = append(in, InEdge{From: b.ref, Data: b.data, LMin: e.src.lmin(q, r), Logical: true})
		}
	}
	return in
}

// instanceFor finds (or, for begins, creates) the collective instance of
// an event, validating op consistency. A communicator's open list is
// short (an instance closes once every rank is past it), so a scan finds
// the instance faster than a map would.
func (e *engine) instanceFor(r int, ev *trace.Event, create bool) (*instance, error) {
	at, known := slices.BinarySearchFunc(e.comms, ev.Comm, func(cs *commState, id int32) int { return cmp.Compare(cs.id, id) })
	var cs *commState
	var ins *instance
	if known {
		cs = e.comms[at]
		for _, o := range cs.open {
			if o.inst == ev.Instance {
				ins = o
				break
			}
		}
	}
	if ins == nil {
		if !create {
			return nil, fmt.Errorf("stream: rank %d ended collective comm %d instance %d without beginning it", r, ev.Comm, ev.Instance)
		}
		if !known {
			cs = &commState{id: ev.Comm, last: make([]int32, e.src.Ranks())}
			for i := range cs.last {
				cs.last[i] = -1
			}
			e.comms = slices.Insert(e.comms, at, cs)
		}
		if n := len(e.free); n > 0 {
			ins, e.free = e.free[n-1], e.free[:n-1]
		} else {
			ins = &instance{}
		}
		ins.inst, ins.comm, ins.op, ins.root = ev.Instance, cs, ev.Op, ev.Root
		cs.open = append(cs.open, ins)
	}
	if ins.op != ev.Op {
		return nil, fmt.Errorf("stream: collective comm %d instance %d mixes ops %v and %v", ev.Comm, ev.Instance, ins.op, ev.Op)
	}
	return ins, nil
}

// touchColl records that rank has reached ins on its communicator,
// enforcing per-communicator instance monotonicity, then re-checks the
// communicator's open instances for completion.
func (e *engine) touchColl(r int, ins *instance) error {
	cs, inst := ins.comm, ins.inst
	if inst < cs.last[r] {
		return fmt.Errorf("%w: rank %d revisits instance %d on comm %d after instance %d (collectives out of per-communicator order)", ErrUnsupported, r, inst, cs.id, cs.last[r])
	}
	cs.last[r] = inst
	return e.completeInstances(cs)
}

// completeInstances finalizes every open instance of cs that no rank
// can join or extend anymore: each rank has either delivered its end,
// moved past the instance on this communicator, or finished its stream.
func (e *engine) completeInstances(cs *commState) error {
	n := e.src.Ranks()
	kept := cs.open[:0]
	for _, ins := range cs.open {
		// visit the ranks that have not ended, ascending, a word of the
		// ends set at a time; bi follows them through the begins
		complete, bi := true, 0
		for base := 0; base < n && complete; base += 64 {
			w := ^ins.ends.word(base >> 6)
			if rem := n - base; rem < 64 {
				w &= 1<<rem - 1
			}
			for ; w != 0; w &= w - 1 {
				r := base + bits.TrailingZeros64(w)
				if !e.done[r] && cs.last[r] <= ins.inst {
					complete = false
					break
				}
				for bi < len(ins.begins) && ins.begins[bi].ref.Rank < r {
					bi++
				}
				if bi < len(ins.begins) && ins.begins[bi].ref.Rank == r && !e.sal {
					return fmt.Errorf("stream: rank %d began collective comm %d instance %d but never ended it", r, cs.id, ins.inst)
				}
			}
		}
		if !complete {
			kept = append(kept, ins)
			continue
		}
		for i := range ins.begins {
			ref := ins.begins[i].ref
			// the rank held a charge for its begin and, unless its end was
			// lost in a gap, one for its end (every end has a begin)
			held := 2
			if !ins.ends.has(ref.Rank) {
				held = 1
				if e.sal {
					e.lossAt(ref.Rank).BrokenCollectives++
				}
			}
			if err := e.snk.final(ref); err != nil {
				return err
			}
			if err := e.acct.add(ref.Rank, -held); err != nil {
				return err
			}
		}
		ins.begins, ins.ends, ins.endsSeen = ins.begins[:0], ins.ends[:0], 0
		e.free = append(e.free, ins)
	}
	cs.open = kept
	return nil
}
