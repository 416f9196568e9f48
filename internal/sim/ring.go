package sim

// ring is a FIFO queue over a power-of-two circular buffer: push at the
// tail, pop at the head, and no allocation once the buffer has grown to
// the queue's peak length. Popped slots are zeroed, so a long-lived queue
// pins nothing it has handed out. The zero value is an empty queue.
type ring[T any] struct {
	buf  []T
	head int
	n    int
}

// Len returns the number of queued values.
func (r *ring[T]) Len() int { return r.n }

// push appends v at the tail.
func (r *ring[T]) push(v T) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = v
	r.n++
}

// front returns the head value in place. Callers must check Len.
func (r *ring[T]) front() *T { return &r.buf[r.head] }

// pop removes and returns the head value. Callers must check Len.
func (r *ring[T]) pop() T {
	var zero T
	v := r.buf[r.head]
	r.buf[r.head] = zero
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return v
}

// grow doubles the buffer, unrolling the queue to start at index 0.
func (r *ring[T]) grow() {
	nb := make([]T, max(4, 2*len(r.buf)))
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = nb, 0
}
