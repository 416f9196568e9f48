package sim

// Store is a FIFO queue of items with blocking Get, the channel analogue
// for simulation processes. Multiple getters are served in FIFO order. A
// bounded store (NewBounded) additionally blocks PutWait when full,
// providing backpressure for pipelines. Items and blocked putters wait in
// rings, and a blocked getter's hand-off record is recycled once it has
// read its value, so a store in steady state allocates nothing.
type Store[T any] struct {
	items    ring[T]
	getters  ring[*storeGetter[T]]
	putters  ring[storePutter[T]]
	spare    []*storeGetter[T] // getter records ready for reuse
	capacity int               // 0 = unbounded
	closed   bool
}

// storePutter is a PutWait blocked on a full store; its item enters the
// store when a Get frees a place.
type storePutter[T any] struct {
	p *Proc
	v T
}

// storeGetter is a Get blocked on an empty store: Put hands it the item
// (ok) and Close releases it empty.
type storeGetter[T any] struct {
	p  *Proc
	v  T
	ok bool
}

// NewStore returns an empty unbounded store.
func NewStore[T any]() *Store[T] { return &Store[T]{} }

// NewBounded returns an empty store holding at most capacity queued items;
// PutWait blocks while it is full.
func NewBounded[T any](capacity int) *Store[T] {
	if capacity <= 0 {
		panic("sim: bounded store capacity must be positive")
	}
	return &Store[T]{capacity: capacity}
}

// Len returns the number of queued items.
func (s *Store[T]) Len() int { return s.items.Len() }

// Put appends an item, waking the oldest blocked getter if any. Put on a
// closed store panics, and Put on a full bounded store panics (use PutWait
// for blocking semantics).
func (s *Store[T]) Put(v T) {
	if s.closed {
		panic("sim: Put on closed Store")
	}
	if s.getters.Len() > 0 {
		g := s.getters.pop()
		g.v, g.ok = v, true
		g.p.unblock(wakeEvent)
		return
	}
	if s.capacity > 0 && s.items.Len() >= s.capacity {
		panic("sim: Put on full bounded Store")
	}
	s.items.push(v)
}

// PutWait appends an item, blocking the process while a bounded store is
// full. On an unbounded store it behaves like Put. It reports whether the
// item was delivered: a closed store (the consumer abandoned the stream)
// drops the item and returns false, letting producers stop cleanly.
func (s *Store[T]) PutWait(p *Proc, v T) bool {
	if s.closed {
		return false
	}
	if s.capacity > 0 && s.getters.Len() == 0 && s.items.Len() >= s.capacity {
		s.putters.push(storePutter[T]{p: p, v: v})
		p.block()
		return !s.closed
	}
	s.Put(v)
	return true
}

// Close marks the store closed: queued items can still be drained, then
// every Get returns ok=false. Blocked getters are released immediately.
func (s *Store[T]) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for s.getters.Len() > 0 {
		s.getters.pop().p.unblock(wakeEvent)
	}
	// Blocked putters are released; their items are dropped.
	for s.putters.Len() > 0 {
		s.putters.pop().p.unblock(wakeEvent)
	}
}

// Get removes and returns the oldest item, blocking the process until one
// is available. ok is false if and only if the store is closed and empty.
func (s *Store[T]) Get(p *Proc) (v T, ok bool) {
	if s.items.Len() > 0 {
		return s.take(), true
	}
	if s.closed {
		return v, false
	}
	var g *storeGetter[T]
	if n := len(s.spare) - 1; n >= 0 {
		g = s.spare[n]
		s.spare = s.spare[:n]
	} else {
		g = &storeGetter[T]{}
	}
	g.p = p
	s.getters.push(g)
	p.block()
	v, ok = g.v, g.ok
	*g = storeGetter[T]{}
	s.spare = append(s.spare, g)
	return v, ok
}

// TryGet removes and returns the oldest item without blocking.
func (s *Store[T]) TryGet() (v T, ok bool) {
	if s.items.Len() == 0 {
		return v, false
	}
	return s.take(), true
}

// take pops the oldest item and admits the oldest blocked putter into the
// place it freed.
func (s *Store[T]) take() T {
	v := s.items.pop()
	if s.putters.Len() > 0 {
		pu := s.putters.pop()
		s.items.push(pu.v)
		pu.p.unblock(wakeEvent)
	}
	return v
}
