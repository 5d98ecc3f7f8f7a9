package stream

import (
	"context"
	"fmt"
	"io"
	"slices"
	"sort"

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

// instance is one open collective operation.
type instance struct {
	key    instKey
	op     trace.CollOp
	root   int32
	begins map[int]sendEntry
	ends   map[int]bool
	// order caches beginOrder's result.
	order []int
	// endsSeen guards against orderings the oracle-time merge cannot
	// support (an edge tail arriving after one of its heads).
	endsSeen int
}

// beginOrder returns the ranks that have begun the instance, ascending:
// the order of every in-edge list and finalization loop, so float folds
// and error choices never depend on map order. Begins are only ever
// added, so the cache is stale exactly when its length differs.
func (ins *instance) beginOrder() []int {
	if len(ins.order) != len(ins.begins) {
		ins.order = sortedRanks(ins.begins)
	}
	return ins.order
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

	// sal tolerates salvage fallout (see Options.Salvage); loss receives
	// the per-rank counters when non-nil. lossSink absorbs counts when
	// loss is nil.
	sal      bool
	loss     []RankLoss
	lossSink RankLoss

	heads []*trace.Event
	idx   []int
	done  []bool
	h     mergeHeap

	fifos map[chanKey][]sendEntry
	insts map[instKey]*instance
	// open[comm] lists open instances of one communicator in arrival
	// order; lastColl[comm][rank] is the highest instance rank has
	// touched on it (-1 = never).
	open     map[int32][]*instance
	lastColl map[int32][]int32

	inBuf []InEdge
}

// mergeHeap orders ranks by their head event's (True, rank). It is a
// hand-rolled binary heap over rank numbers: the comparison is two loads
// and a float compare, cheap enough that container/heap's interface
// dispatch used to dominate it. The pop order cannot differ from the
// generic heap's: (True, rank) is a strict total order over the live
// ranks, so the minimum is unique at every step.
type mergeHeap struct {
	e *engine
	r []int
}

func (m *mergeHeap) less(a, b int) bool {
	ta, tb := m.e.heads[a].True, m.e.heads[b].True
	if ta != tb { //tsync:exact — heap order on oracle times; ties break by rank below
		return ta < tb
	}
	return a < b
}

func (m *mergeHeap) push(r int) {
	m.r = append(m.r, r)
	for i := len(m.r) - 1; i > 0; {
		p := (i - 1) / 2
		if !m.less(m.r[i], m.r[p]) {
			break
		}
		m.r[i], m.r[p] = m.r[p], m.r[i]
		i = p
	}
}

func (m *mergeHeap) pop() int {
	top := m.r[0]
	last := len(m.r) - 1
	m.r[0] = m.r[last]
	m.r = m.r[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= last {
			break
		}
		if rgt := c + 1; rgt < last && m.less(m.r[rgt], m.r[c]) {
			c = rgt
		}
		if !m.less(m.r[c], m.r[i]) {
			break
		}
		m.r[i], m.r[c] = m.r[c], m.r[i]
		i = c
	}
	return top
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
// exhausted. A merger defers refilling the source of the event it just
// returned until the next call, so a refill error surfaces after the
// previous event was fully processed, exactly where the historical
// advance-after-process loop surfaced it.
type merged interface {
	prime(r int) error
	next() (rank int, ev *trace.Event, err error)
}

// walk merges src's ranks and feeds snk. ctx is checked between events
// (every ctxCheckEvery merge pops), so cancellation surfaces within one
// slab's worth of work; the deferred stop release makes every decode and
// shard-merge goroutine exit before walk returns. loss, when non-nil,
// receives the engine-side salvage counters (one entry per rank).
//
// Rank completion is count-driven: the cursors deliver exactly the
// retained event counts the index pass recorded (Source.Procs), so a
// rank is done the moment its count of events has been processed —
// equivalent to the historical cursor-EOF signal, but independent of
// which merger feeds the engine.
func walk(ctx context.Context, src *Source, m timeMapper, snk sink, opt Options, acct *accounting, loss []RankLoss) error {
	n := src.Ranks()
	// stop tears the merge stages down if the walk exits before
	// draining them (sink error, malformed trace, cancellation).
	stop := make(chan struct{})
	defer close(stop)
	e := &engine{
		src: src, mapper: m, snk: snk, opt: opt,
		acct:     acct,
		sal:      opt.Salvage || src.Salvaged(),
		loss:     loss,
		heads:    make([]*trace.Event, n),
		idx:      make([]int, n),
		done:     make([]bool, n),
		fifos:    map[chanKey][]sendEntry{},
		insts:    map[instKey]*instance{},
		open:     map[int32][]*instance{},
		lastColl: map[int32][]int32{},
	}
	e.h.e = e
	var mg merged
	if shards := shardCount(n, opt.Shards); shards > 1 {
		mg = newTreeMerger(e, src, opt, shards, stop)
	} else {
		mg = newFlatMerger(e, src, opt, stop)
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
		e.heads[r] = ev
		if err := e.process(r); err != nil {
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
		for _, k := range sortedChanKeys(e.fifos) {
			if q := e.fifos[k]; len(q) > 0 {
				return fmt.Errorf("stream: %d unmatched Sends from %d to %d tag %d", len(q), k.from, k.to, k.tag)
			}
		}
		for _, ik := range sortedInstKeys(e.insts) {
			ins := e.insts[ik]
			return fmt.Errorf("stream: collective comm %d instance %d incomplete at end of trace (%d begins, %d ends)",
				ins.key.comm, ins.key.inst, len(ins.begins), len(ins.ends))
		}
	}
	return e.snk.flush()
}

// ctxCheckEvery is how many merge pops go between context checks:
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
	for _, k := range sortedChanKeys(e.fifos) {
		for _, se := range e.fifos[k] {
			e.lossAt(se.ref.Rank).DroppedSends++
			if err := e.snk.final(se.ref); err != nil {
				return err
			}
			if err := e.acct.add(se.ref.Rank, -1); err != nil {
				return err
			}
		}
		delete(e.fifos, k)
	}
	for _, ik := range sortedInstKeys(e.insts) {
		ins := e.insts[ik]
		for _, r := range ins.beginOrder() {
			e.lossAt(r).BrokenCollectives++
			if err := e.snk.final(ins.begins[r].ref); err != nil {
				return err
			}
			if err := e.acct.add(r, -1); err != nil {
				return err
			}
		}
		for _, r := range sortedRanks(ins.ends) {
			e.lossAt(r).BrokenCollectives++
			if err := e.acct.add(r, -1); err != nil {
				return err
			}
		}
		delete(e.insts, ik)
	}
	for comm := range e.open {
		delete(e.open, comm)
	}
	return nil
}

// sortedChanKeys returns the fifo keys ordered by (from, to, tag, comm),
// so every per-channel walk is independent of map visit order.
func sortedChanKeys(m map[chanKey][]sendEntry) []chanKey {
	keys := make([]chanKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.from != b.from {
			return a.from < b.from
		}
		if a.to != b.to {
			return a.to < b.to
		}
		if a.tag != b.tag {
			return a.tag < b.tag
		}
		return a.comm < b.comm
	})
	return keys
}

// sortedInstKeys returns the open-collective keys ordered by
// (comm, inst).
func sortedInstKeys(m map[instKey]*instance) []instKey {
	keys := make([]instKey, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].comm != keys[j].comm {
			return keys[i].comm < keys[j].comm
		}
		return keys[i].inst < keys[j].inst
	})
	return keys
}

// sortedRanks returns the keys of a per-rank map in ascending order.
func sortedRanks[V any](m map[int]V) []int {
	rs := make([]int, 0, len(m))
	for r := range m {
		rs = append(rs, r)
	}
	sort.Ints(rs)
	return rs
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
	comms := make([]int32, 0, len(e.open))
	for comm := range e.open {
		comms = append(comms, comm)
	}
	slices.Sort(comms)
	for _, comm := range comms {
		if err := e.completeInstances(comm); err != nil {
			return err
		}
	}
	return nil
}

// flatMerger is the single-heap merge: one decode-ahead stage per rank,
// all heads in one mergeHeap. The refill of the rank whose event the
// last next returned is deferred to the following call, so a mid-stream
// decode error surfaces after the previous event was processed — the
// exact position the historical advance-after-process loop gave it.
type flatMerger struct {
	e       *engine
	cursors []*slabCursor
	pending int // rank to refill before the next pop; -1 = none
}

func newFlatMerger(e *engine, src *Source, opt Options, stop chan struct{}) *flatMerger {
	pool := newSlabPool(opt.Batch)
	f := &flatMerger{e: e, cursors: make([]*slabCursor, src.Ranks()), pending: -1}
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
	f.e.heads[r] = ev
	f.e.h.push(r)
	return nil
}

func (f *flatMerger) next() (int, *trace.Event, error) {
	if r := f.pending; r >= 0 {
		f.pending = -1
		ev, err := f.cursors[r].nextRef()
		switch {
		case err == io.EOF:
			// exhausted; walk's count bookkeeping already fired rankDone
		case err != nil:
			return 0, nil, err
		default:
			f.e.heads[r] = ev
			f.e.h.push(r)
		}
	}
	if len(f.e.h.r) == 0 {
		return 0, nil, io.EOF
	}
	r := f.e.h.pop()
	f.pending = r
	return r, f.e.heads[r], nil
}

// lmin returns the unscaled minimum latency between two ranks' cores.
func (s *Source) lmin(a, b int) float64 {
	if a < 0 || a >= len(s.procs) || b < 0 || b >= len(s.procs) {
		return 0
	}
	return s.head.MinLatency[topology.Relate(s.procs[a].Core, s.procs[b].Core)]
}

func (e *engine) process(r int) error {
	ev := e.heads[r]
	idx := e.idx[r]
	mapped, err := e.mapper.mapTime(r, idx, ev)
	if err != nil {
		return err
	}
	in := e.inBuf[:0]
	var matchedSend EventRef
	var haveMatch bool
	// orphanEnd marks a CollEnd that cannot join any instance (salvage
	// only): it is treated as a local event, bypassing the collective
	// bookkeeping below.
	var orphanEnd bool

	switch ev.Kind {
	case trace.Recv:
		k := chanKey{from: ev.Partner, to: int32(r), tag: ev.Tag, comm: ev.Comm}
		q := e.fifos[k]
		matched := len(q) > 0
		if matched && e.sal && q[0].tru >= ev.True { //tsync:exact — genuine pairs strictly increase oracle time; a head at or past the receive belongs to a later message whose real receive is still ahead
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
		se := q[0]
		if len(q) == 1 {
			delete(e.fifos, k)
		} else {
			e.fifos[k] = q[1:]
		}
		if err := e.acct.add(se.ref.Rank, -1); err != nil {
			return err
		}
		in = append(in, InEdge{From: se.ref, Data: se.data, LMin: e.src.lmin(se.ref.Rank, r)})
		matchedSend, haveMatch = se.ref, true
	case trace.CollEnd:
		ins, err := e.instanceFor(r, ev, false)
		if err == nil {
			if _, ok := ins.begins[r]; !ok {
				err = fmt.Errorf("stream: rank %d ended collective comm %d instance %d without beginning it", r, ev.Comm, ev.Instance)
			} else if ins.ends[r] {
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
			orphanEnd = true
			break
		}
		root := int(ins.root)
		switch classOf(ins.op) {
		case oneToN:
			if r != root {
				if rb, ok := ins.begins[root]; ok {
					in = append(in, InEdge{From: rb.ref, Data: rb.data, LMin: e.src.lmin(root, r), Logical: true})
				}
			}
		case nToOne:
			if r == root {
				// ascending-rank edge order: sinks fold the in-edges in
				// slice order, and float folds are order-sensitive
				for _, q := range ins.beginOrder() {
					if q == r {
						continue
					}
					rec := ins.begins[q]
					in = append(in, InEdge{From: rec.ref, Data: rec.data, LMin: e.src.lmin(q, r), Logical: true})
				}
			}
		case nToN:
			for _, q := range ins.beginOrder() {
				if q == r {
					continue
				}
				rec := ins.begins[q]
				in = append(in, InEdge{From: rec.ref, Data: rec.data, LMin: e.src.lmin(q, r), Logical: true})
			}
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
		k := chanKey{from: int32(r), to: ev.Partner, tag: ev.Tag, comm: ev.Comm}
		e.fifos[k] = append(e.fifos[k], sendEntry{ref: ref, data: data, tru: ev.True})
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
		ins, err := e.instanceFor(r, ev, true)
		if err == nil {
			if _, dup := ins.begins[r]; dup {
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
		ins.begins[r] = sendEntry{ref: ref, data: data, tru: ev.True}
		if err := e.acct.add(r, 1); err != nil {
			return err
		}
		if err := e.touchColl(r, ev.Comm, ev.Instance); err != nil {
			return err
		}
	case trace.CollEnd:
		if orphanEnd {
			if err := e.snk.final(ref); err != nil {
				return err
			}
			break
		}
		ins := e.insts[instKey{ev.Comm, ev.Instance}]
		ins.ends[r] = true
		ins.endsSeen++
		if err := e.acct.add(r, 1); err != nil {
			return err
		}
		if err := e.snk.final(ref); err != nil {
			return err
		}
		if err := e.touchColl(r, ev.Comm, ev.Instance); err != nil {
			return err
		}
	default:
		if err := e.snk.final(ref); err != nil {
			return err
		}
	}
	return nil
}

// instanceFor finds (or, for begins, creates) the collective instance of
// an event, validating op consistency.
func (e *engine) instanceFor(r int, ev *trace.Event, create bool) (*instance, error) {
	k := instKey{ev.Comm, ev.Instance}
	ins, ok := e.insts[k]
	if !ok {
		if !create {
			return nil, fmt.Errorf("stream: rank %d ended collective comm %d instance %d without beginning it", r, ev.Comm, ev.Instance)
		}
		ins = &instance{key: k, op: ev.Op, root: ev.Root, begins: map[int]sendEntry{}, ends: map[int]bool{}}
		e.insts[k] = ins
		e.open[ev.Comm] = append(e.open[ev.Comm], ins)
	}
	if ins.op != ev.Op {
		return nil, fmt.Errorf("stream: collective comm %d instance %d mixes ops %v and %v", ev.Comm, ev.Instance, ins.op, ev.Op)
	}
	return ins, nil
}

// touchColl records that rank has reached instance inst on comm,
// enforcing per-communicator instance monotonicity, then re-checks the
// communicator's open instances for completion.
func (e *engine) touchColl(r int, comm, inst int32) error {
	seen, ok := e.lastColl[comm]
	if !ok {
		seen = make([]int32, e.src.Ranks())
		for i := range seen {
			seen[i] = -1
		}
		e.lastColl[comm] = seen
	}
	if inst < seen[r] {
		return fmt.Errorf("%w: rank %d revisits instance %d on comm %d after instance %d (collectives out of per-communicator order)", ErrUnsupported, r, inst, comm, seen[r])
	}
	seen[r] = inst
	return e.completeInstances(comm)
}

// completeInstances finalizes every open instance of comm that no rank
// can join or extend anymore: each rank has either delivered its end,
// moved past the instance on this communicator, or finished its stream.
func (e *engine) completeInstances(comm int32) error {
	openList := e.open[comm]
	kept := openList[:0]
	seen := e.lastColl[comm]
	for _, ins := range openList {
		complete := true
		for r := 0; r < e.src.Ranks(); r++ {
			if ins.ends[r] {
				continue
			}
			past := e.done[r] || (seen != nil && seen[r] > ins.key.inst)
			if !past {
				complete = false
				break
			}
			if _, begun := ins.begins[r]; begun && !e.sal {
				return fmt.Errorf("stream: rank %d began collective comm %d instance %d but never ended it", r, comm, ins.key.inst)
			}
		}
		if !complete {
			kept = append(kept, ins)
			continue
		}
		for _, r := range ins.beginOrder() {
			if e.sal && !ins.ends[r] {
				// the rank's end was lost in a gap; release the begin
				e.lossAt(r).BrokenCollectives++
			}
			if err := e.snk.final(ins.begins[r].ref); err != nil {
				return err
			}
			if err := e.acct.add(r, -1); err != nil {
				return err
			}
		}
		// every end has a begin (process turns the others away), so the
		// begin order walks the ends ascending too, without a sort
		for _, r := range ins.beginOrder() {
			if !ins.ends[r] {
				continue
			}
			if err := e.acct.add(r, -1); err != nil {
				return err
			}
		}
		delete(e.insts, ins.key)
	}
	if len(kept) == 0 {
		delete(e.open, comm)
	} else {
		e.open[comm] = kept
	}
	return nil
}
