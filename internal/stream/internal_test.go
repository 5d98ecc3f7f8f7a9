package stream

// White-box tests for the engine's tunables and slab plumbing: option
// normalization must be the single clamping point, and the slab pool
// must recycle without per-event (or per-slab) allocations.

import (
	"io"
	"testing"

	"tsync/internal/trace"
)

func TestOptionsNormalize(t *testing.T) {
	cases := []struct {
		name string
		in   Options
		want Options
	}{
		{"zero", Options{}, Options{Window: DefaultWindow, Batch: DefaultBatch}},
		{"negative", Options{Window: -5, Batch: -1}, Options{Window: DefaultWindow, Batch: DefaultBatch}},
		{"kept", Options{Window: 7, Batch: 9, Policy: PolicyError}, Options{Window: 7, Batch: 9, Policy: PolicyError}},
		{"shards-negative", Options{Shards: -3}, Options{Window: DefaultWindow, Batch: DefaultBatch}},
		{"shards-kept", Options{Shards: 4}, Options{Window: DefaultWindow, Batch: DefaultBatch, Shards: 4}},
	}
	for _, tc := range cases {
		if got := tc.in.Normalize(); got != tc.want {
			t.Errorf("%s: Normalize(%+v) = %+v, want %+v", tc.name, tc.in, got, tc.want)
		}
	}
}

// TestShardCount pins the shard-count resolution: explicit requests are
// honored (clamped to the rank count), automatic selection keeps small
// jobs on the flat merge and bounds the fan-out of large ones.
func TestShardCount(t *testing.T) {
	cases := []struct {
		ranks, req, want int
	}{
		{4, 0, 1},                  // small auto: flat
		{autoShardRanks - 1, 0, 1}, // just under the auto threshold
		{autoShardRanks, 0, 2},     // at the threshold: minimum tree
		{1024, 0, 4},               // 1024/256
		{100000, 0, maxAutoShards}, // capped fan-out
		{4, 3, 3},                  // explicit honored
		{4, 100, 4},                // explicit clamped to ranks
		{4, 1, 1},                  // explicit flat
		{10000, 0, 10000 / shardRankTarget},
	}
	for _, tc := range cases {
		if got := shardCount(tc.ranks, tc.req); got != tc.want {
			t.Errorf("shardCount(%d, %d) = %d, want %d", tc.ranks, tc.req, got, tc.want)
		}
	}
}

// TestShardBounds: the shard ranges must partition [0, n) contiguously
// with every shard non-empty.
func TestShardBounds(t *testing.T) {
	for _, n := range []int{1, 2, 7, 128, 10000} {
		for _, s := range []int{1, 2, 3, 7, 64} {
			if s > n {
				continue
			}
			prev := 0
			for i := 0; i < s; i++ {
				lo, hi := shardBounds(i, s, n)
				if lo != prev || hi <= lo {
					t.Fatalf("shardBounds(%d, %d, %d) = [%d, %d): not a contiguous non-empty partition after %d", i, s, n, lo, hi, prev)
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("shards of %d over %d end at %d", s, n, prev)
			}
		}
	}
}

// TestWorkerSlabCap: per-rank slabs shrink with the total rank count but
// never below the floor and never above the pipeline batch.
func TestWorkerSlabCap(t *testing.T) {
	cases := []struct {
		batch, ranks, want int
	}{
		{4096, 16, 4096}, // 65536/16 = 4096 = batch
		{4096, 8, 4096},  // capped by batch
		{4096, 10000, 8}, // floor
		{4096, 256, 256}, // 65536/256
		{64, 256, 64},    // capped by small batch
		{4, 100000, 8},   // floor beats batch
	}
	for _, tc := range cases {
		if got := workerSlabCap(tc.batch, tc.ranks); got != tc.want {
			t.Errorf("workerSlabCap(%d, %d) = %d, want %d", tc.batch, tc.ranks, got, tc.want)
		}
	}
}

// TestSynthAllocs pins Synth to O(ranks) total allocations: emitting 40×
// more steps must not add meaningfully to the allocation count, because
// the per-event path reuses one emitter and writer-owned scratch.
func TestSynthAllocs(t *testing.T) {
	run := func(steps int) float64 {
		spec := SynthSpec{Ranks: 8, Steps: steps, CollEvery: 5, Seed: 3}
		return testing.AllocsPerRun(3, func() {
			if _, _, err := Synth(spec, io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, big := run(50), run(2000)
	if big > small+16 {
		t.Errorf("Synth allocations scale with steps: %.0f at 50 steps, %.0f at 2000", small, big)
	}
}

// TestSlabRecycleAllocs pins the steady-state slab cycle — get, fill to
// capacity, put — to zero allocations once the pool is warm.
func TestSlabRecycleAllocs(t *testing.T) {
	pool := newSlabPool(64)
	warm := pool.get()
	pool.put(warm)
	ev := trace.Event{Kind: trace.Send, Time: 1, True: 2}
	if avg := testing.AllocsPerRun(1000, func() {
		s := pool.get()
		for len(s.evs) < cap(s.evs) {
			s.evs = append(s.evs, ev)
		}
		pool.put(s)
	}); avg > 0.02 {
		// sync.Pool may drop items across GC cycles; anything beyond
		// that noise means the cycle itself allocates.
		t.Errorf("slab recycle allocates %.3f per cycle, want ~0", avg)
	}
}

// TestChannelsStayBounded: a drained channel keeps its map entry for its
// next message only while the map is small. A trace that uses every
// channel once (a tag per message) must not grow the map with its
// length, must not lose a channel that holds a send, and recycles the
// queues of the channels it closes.
func TestChannelsStayBounded(t *testing.T) {
	c := newChannels(8)
	held := chanKey{from: 1, to: 2, tag: -1}
	c.push(held, sendEntry{tru: 42})
	once := func(k chanKey) {
		c.push(k, sendEntry{})
		c.pop(k, c.m[k])
	}
	for tag := int32(0); tag < 100000; tag++ {
		once(chanKey{from: 0, to: 1, tag: tag})
	}
	if len(c.m) > c.limit+1 {
		t.Errorf("%d channel entries after 100000 single-use channels, limit %d", len(c.m), c.limit)
	}
	if q := c.m[held]; q == nil || q.len() != 1 || q.at(0).tru != 42 {
		t.Error("a channel with an unmatched send was dropped")
	}
	tag := int32(-2)
	if avg := testing.AllocsPerRun(1000, func() {
		once(chanKey{from: 0, to: 1, tag: tag})
		tag--
	}); avg != 0 {
		t.Errorf("a single-use channel past the limit allocates %.1f, want 0", avg)
	}

	// under the limit the entries stay and a message costs two lookups
	c = newChannels(8)
	turn := func() {
		for to := int32(0); to < 512; to++ {
			once(chanKey{from: 7, to: to})
		}
	}
	turn()
	if len(c.m) != 512 {
		t.Errorf("%d entries after one message on each of 512 channels", len(c.m))
	}
	if avg := testing.AllocsPerRun(10, turn); avg != 0 {
		t.Errorf("512 channels in steady use allocate %.0f per round, want 0", avg)
	}
}
