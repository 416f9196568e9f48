package sim

// Semaphore is a counted resource with FIFO admission: Acquire requests are
// granted strictly in arrival order, so a large request at the head of the
// queue is not starved by small ones behind it. Waiters queue by value in a
// ring, so a blocking Acquire allocates nothing once the ring has grown.
type Semaphore struct {
	capacity int
	used     int
	queue    ring[semWaiter]
}

type semWaiter struct {
	p *Proc
	n int
}

// NewSemaphore returns a semaphore with the given capacity.
func NewSemaphore(capacity int) *Semaphore {
	if capacity <= 0 {
		panic("sim: semaphore capacity must be positive")
	}
	return &Semaphore{capacity: capacity}
}

// Capacity returns the total capacity.
func (s *Semaphore) Capacity() int { return s.capacity }

// InUse returns the units currently held.
func (s *Semaphore) InUse() int { return s.used }

// Waiting returns the number of queued Acquire calls.
func (s *Semaphore) Waiting() int { return s.queue.Len() }

// Acquire obtains n units, blocking the process until they are available.
func (s *Semaphore) Acquire(p *Proc, n int) {
	if n > s.capacity {
		panic("sim: acquire exceeds semaphore capacity")
	}
	if s.queue.Len() == 0 && s.used+n <= s.capacity {
		s.used += n
		return
	}
	s.queue.push(semWaiter{p: p, n: n})
	p.block()
}

// TryAcquire obtains n units only if they are immediately available,
// reporting whether it succeeded.
func (s *Semaphore) TryAcquire(n int) bool {
	if s.queue.Len() == 0 && s.used+n <= s.capacity {
		s.used += n
		return true
	}
	return false
}

// Release returns n units and admits queued waiters in FIFO order.
func (s *Semaphore) Release(n int) {
	s.used -= n
	if s.used < 0 {
		panic("sim: semaphore released more than acquired")
	}
	for s.queue.Len() > 0 {
		w := s.queue.front()
		if s.used+w.n > s.capacity {
			break
		}
		s.used += w.n
		s.queue.pop().p.unblock(wakeEvent)
	}
}

// Mutex is a Semaphore of capacity one with Lock/Unlock naming.
type Mutex struct{ s *Semaphore }

// NewMutex returns an unlocked mutex.
func NewMutex() *Mutex { return &Mutex{s: NewSemaphore(1)} }

// Lock acquires the mutex, blocking the process until it is free.
func (m *Mutex) Lock(p *Proc) { m.s.Acquire(p, 1) }

// Unlock releases the mutex.
func (m *Mutex) Unlock() { m.s.Release(1) }
