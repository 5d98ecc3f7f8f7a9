package stream

// ring is a FIFO queue over a circular buffer: push at the back, pop at
// the front, index from the front. The engine's pending queues (a
// channel's unmatched sends, a rank's CLC look-back entries and ramp
// jobs) hold a few entries and turn over once per event: a slice that
// slides (q = q[1:], then append) reallocates every few events, a ring
// reuses its buffer. It doubles when full, so it is sized by the queue's
// own high-water mark.
type ring[T any] struct {
	buf  []T // len is zero or a power of two
	head int // position of element 0
	n    int
}

func (q *ring[T]) len() int { return q.n }

// at returns the i-th element from the front, 0 <= i < len. The pointer
// is valid until the next push.
func (q *ring[T]) at(i int) *T {
	return &q.buf[(q.head+i)&(len(q.buf)-1)]
}

func (q *ring[T]) push(v T) {
	if q.n == len(q.buf) {
		q.grow()
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = v
	q.n++
}

// pop drops the front element; the queue must not be empty.
func (q *ring[T]) pop() {
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
}

func (q *ring[T]) grow() {
	buf := make([]T, max(4, 2*len(q.buf)))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}
