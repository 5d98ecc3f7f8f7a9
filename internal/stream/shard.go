package stream

// Two-level merge tree. The flat k-way merge pops one heap of k rank
// heads; at cluster-scale rank counts the heap depth and the per-rank
// decode-ahead goroutines both become the bottleneck. The tree splits
// the ranks into contiguous shards, merges each shard on its own
// goroutine (a small heap over synchronous per-rank cursors with slabs
// sized to the rank count), and merges the shard streams at the root.
//
// Determinism: each shard stream is sorted by (True, rank), so at every
// step the root's minimum over the shard heads equals the flat merge's
// minimum over all rank heads (each shard head is the minimum of its
// shard). Shards are contiguous rank ranges, so two shard heads never
// share a rank and the (True, rank) comparison stays a strict total
// order at the root. By induction the root emits exactly the flat
// merge's sequence — DESIGN.md §12 spells the argument out; the
// differential suite enforces it bit for bit across shard counts.

import (
	"io"
	"sync"

	"tsync/internal/trace"
)

// autoShardRanks is the rank count at which Shards=0 (automatic) stops
// selecting the flat merge: below it the flat heap is shallow enough
// that shard hand-off overhead wins nothing.
const autoShardRanks = 128

// shardRankTarget is the rank count the automatic shard count aims at
// per shard; maxAutoShards bounds the goroutine fan-out.
const (
	shardRankTarget = 256
	maxAutoShards   = 64
)

// ShardCount reports the merge fan-out the engine resolves for a
// topology: req shards clamped to the rank count, or the automatic
// selection when req is zero (flat below 128 ranks, then about one
// shard per 256 ranks, capped at 64). CLIs and the bench harness use it
// to report the effective shard count of an automatic run.
func ShardCount(ranks, req int) int { return shardCount(ranks, req) }

// shardCount resolves an Options.Shards setting against a rank count: a
// positive request is honored (clamped so every shard holds at least
// one rank), zero picks the automatic count.
func shardCount(ranks, req int) int {
	if req > 0 {
		if req > ranks {
			return ranks
		}
		return req
	}
	if ranks < autoShardRanks {
		return 1
	}
	s := ranks / shardRankTarget
	if s < 2 {
		s = 2
	}
	if s > maxAutoShards {
		s = maxAutoShards
	}
	return s
}

// shardBounds returns the contiguous rank range of shard i of s over n
// ranks: balanced split, every shard non-empty for s <= n.
func shardBounds(i, s, n int) (lo, hi int) {
	return i * n / s, (i + 1) * n / s
}

// workerSlabCap sizes the per-rank decode slab inside a shard worker.
// Unlike the flat path's decode-ahead stages (two slabs of Batch events
// per rank), every rank of every shard holds one slab for the whole
// walk, so at 10k ranks the cap must shrink with the rank count to keep
// the working set inside the window-bounded memory contract.
func workerSlabCap(batch, totalRanks int) int {
	c := 1 << 16 / totalRanks
	if c > batch {
		c = batch
	}
	if c < 8 {
		c = 8
	}
	return c
}

// syncCursor decodes one rank's events synchronously through a private
// slab, delivering any decode error only after the events that preceded
// it — the same events-then-error order slabCursor gives the flat path.
type syncCursor struct {
	cur *Cursor
	s   slab
	pos int
	err error // carried until the slab's events drain
	fin bool
}

func newSyncCursor(cur *Cursor, slabCap int) *syncCursor {
	return &syncCursor{cur: cur, s: slab{evs: make([]trace.Event, 0, slabCap)}}
}

// nextRef returns a pointer to the rank's next event; the pointee stays
// valid until the slab refills (at most cap further calls).
func (c *syncCursor) nextRef() (*trace.Event, error) {
	if c.pos == len(c.s.evs) {
		if c.err != nil {
			return nil, c.err
		}
		if c.fin {
			return nil, io.EOF
		}
		err := c.cur.fill(&c.s)
		c.pos = 0
		if err == io.EOF {
			c.fin = true
			return nil, io.EOF
		}
		if err != nil {
			c.err = err
			if len(c.s.evs) == 0 {
				return nil, err
			}
		}
	}
	ev := &c.s.evs[c.pos]
	c.pos++
	return ev, nil
}

// mslab is the unit of hand-off from a shard worker to the root: a
// column pair of merged events and their ranks, plus the error (if any)
// that ended the shard stream after the last event.
type mslab struct {
	evs   []trace.Event
	ranks []int32
	err   error
}

type mslabPool struct {
	p sync.Pool
}

// mslabBatchCap bounds the hand-off batch: large enough to amortize the
// channel send, small enough that shards × in-flight batches stay a few
// MiB at the default Batch.
const mslabBatchCap = 1024

func newMslabPool(batch int) *mslabPool {
	if batch > mslabBatchCap {
		batch = mslabBatchCap
	}
	mp := &mslabPool{}
	mp.p.New = func() any {
		return &mslab{evs: make([]trace.Event, 0, batch), ranks: make([]int32, 0, batch)}
	}
	return mp
}

func (mp *mslabPool) get() *mslab { return mp.p.Get().(*mslab) }

func (mp *mslabPool) put(m *mslab) {
	m.evs, m.ranks, m.err = m.evs[:0], m.ranks[:0], nil
	mp.p.Put(m)
}

// mergeShard is one shard worker: it merges ranks [lo, hi) in (True,
// rank) order and streams the result as mslab batches. A decode error
// ends the stream after the events that preceded it (carried on the
// final mslab); closing stop releases the worker if the root quits
// early. All state arrives as arguments — the goroutine captures
// nothing.
func mergeShard(src *Source, lo, hi, slabCap int, pool *mslabPool, out chan<- *mslab, stop <-chan struct{}) {
	defer close(out)
	curs := make([]*syncCursor, hi-lo)
	h := make(headHeap, 0, hi-lo)
	emit := pool.get()
	send := func(m *mslab) bool {
		select {
		case out <- m:
			return true
		case <-stop:
			pool.put(m)
			return false
		}
	}
	// fail attaches a decode error to the pending batch and flushes it,
	// ending the stream.
	fail := func(err error) {
		emit.err = err
		send(emit)
	}
	for i := range curs {
		curs[i] = newSyncCursor(src.Cursor(lo+i), slabCap)
		switch ev, err := curs[i].nextRef(); {
		case err == io.EOF:
		case err != nil:
			fail(err)
			return
		default:
			h.push(head{ev: ev, tru: ev.True, rank: int32(lo + i), src: int32(i)})
		}
	}
	for len(h) > 0 {
		top := h[0]
		emit.evs = append(emit.evs, *top.ev)
		emit.ranks = append(emit.ranks, top.rank)
		if len(emit.evs) == cap(emit.evs) {
			if !send(emit) {
				return
			}
			emit = pool.get()
		}
		// at io.EOF ev is nil and the rank leaves the heap
		ev, err := curs[top.src].nextRef()
		if err != nil && err != io.EOF {
			fail(err)
			return
		}
		h.advance(ev, top.rank)
	}
	if len(emit.evs) > 0 {
		send(emit)
	} else {
		pool.put(emit)
	}
}

// shardStream is the root's view of one worker's output.
type shardStream struct {
	ch  chan *mslab
	cur *mslab
	pos int
}

// treeMerger implements merged over shard workers: prime(0) launches
// the workers and loads every shard's first head; next runs the root
// merge with the same deferred advance as flatMerger, so a shard's mslab
// is recycled only after its last event was processed. Shards cover
// disjoint contiguous rank ranges, so (True, rank) is a strict total
// order over the shard heads.
type treeMerger struct {
	pool    *mslabPool
	streams []*shardStream
	h       headHeap
	taken   bool // the top was returned and is advanced before the next read
}

func newTreeMerger(src *Source, opt Options, shards int, stop chan struct{}) *treeMerger {
	n := src.Ranks()
	t := &treeMerger{
		pool:    newMslabPool(opt.Batch),
		streams: make([]*shardStream, shards),
		h:       make(headHeap, 0, shards),
	}
	slabCap := workerSlabCap(opt.Batch, n)
	for i := 0; i < shards; i++ {
		lo, hi := shardBounds(i, shards, n)
		s := &shardStream{ch: make(chan *mslab, 2)}
		t.streams[i] = s
		go mergeShard(src, lo, hi, slabCap, t.pool, s.ch, stop)
	}
	return t
}

// head returns shard si's next event and its rank, pulling the next
// mslab when the current one drains. An exhausted shard returns a nil
// event; a shard decode error surfaces to the walk.
func (t *treeMerger) head(si int32) (*trace.Event, int32, error) {
	s := t.streams[si]
	for {
		if s.cur != nil && s.pos < len(s.cur.evs) {
			s.pos++
			return &s.cur.evs[s.pos-1], s.cur.ranks[s.pos-1], nil
		}
		if s.cur != nil {
			if err := s.cur.err; err != nil {
				s.cur.err = nil
				return nil, 0, err
			}
			t.pool.put(s.cur)
			s.cur = nil
		}
		m, ok := <-s.ch
		if !ok {
			return nil, 0, nil
		}
		s.cur, s.pos = m, 0
	}
}

// prime loads the shard heads on its first call (rank 0); the walk's
// per-rank priming loop needs nothing else — empty ranks are detected
// by the walk's count bookkeeping, and shard startup errors surface
// here, before any event is processed.
func (t *treeMerger) prime(r int) error {
	if r != 0 {
		return nil
	}
	for si := range t.streams {
		ev, rank, err := t.head(int32(si))
		if err != nil {
			return err
		}
		if ev != nil {
			t.h.push(head{ev: ev, tru: ev.True, rank: rank, src: int32(si)})
		}
	}
	return nil
}

func (t *treeMerger) next() (int, *trace.Event, error) {
	if t.taken {
		t.taken = false
		ev, rank, err := t.head(t.h[0].src)
		if err != nil {
			return 0, nil, err
		}
		t.h.advance(ev, rank)
	}
	if len(t.h) == 0 {
		return 0, nil, io.EOF
	}
	t.taken = true
	return int(t.h[0].rank), t.h[0].ev, nil
}
