package stream

import (
	"testing"

	"tsync/internal/xrand"
)

// TestRing works a ring against a plain slice under a seeded mix of
// pushes, pops, indexed reads and writes through at. The phases swing the
// bias between filling and draining, so the queue grows through several
// doublings, wraps many times at each size, and runs empty in between.
func TestRing(t *testing.T) {
	rng := xrand.NewSource(0x7169)
	var q ring[int]
	var model []int
	next, wraps, grows := 0, 0, 0
	for step := 0; step < 200000; step++ {
		fill := 6 // pushes per 10 operations in this phase
		if (step/5000)%2 == 1 {
			fill = 4
		}
		switch op := rng.Intn(10); {
		case op < fill:
			before := len(q.buf)
			q.push(next)
			model = append(model, next)
			next++
			if len(q.buf) != before {
				grows++
			}
		case len(model) > 0:
			if q.head == len(q.buf)-1 {
				wraps++
			}
			q.pop()
			model = model[1:]
		}
		if q.len() != len(model) {
			t.Fatalf("step %d: len %d, model %d", step, q.len(), len(model))
		}
		if n := len(model); n > 0 {
			i := rng.Intn(n)
			if got := *q.at(i); got != model[i] {
				t.Fatalf("step %d: at(%d) = %d, model %d", step, i, got, model[i])
			}
			if *q.at(0) != model[0] || *q.at(n - 1) != model[n-1] {
				t.Fatalf("step %d: ends (%d, %d), model (%d, %d)", step, *q.at(0), *q.at(n - 1), model[0], model[n-1])
			}
			*q.at(i) = -model[i]
			model[i] = -model[i]
		}
	}
	if wraps < 20 || grows < 5 {
		t.Errorf("the workout wrapped %d times and grew %d times: too tame", wraps, grows)
	}
	if len(q.buf)&(len(q.buf)-1) != 0 {
		t.Errorf("buffer length %d is not a power of two", len(q.buf))
	}

	// A warm ring turns over without allocating, wrapping included.
	for q.len() > 3 {
		q.pop()
	}
	if avg := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 3*len(q.buf); i++ {
			q.push(i)
			q.pop()
		}
	}); avg != 0 {
		t.Errorf("a warm ring allocates %.2f per turnover, want 0", avg)
	}
}
