package sim

import "time"

// Pipe models a bandwidth-limited resource — a NIC, a disk, a storage
// target. Capacity is handed out through FIFO reservations: a reservation
// of n bytes occupies the pipe for n divided by the rate, starting when the
// previous reservation ends. Transfers are split into chunks with a sleep
// between reservations, so concurrent flows interleave and each receives an
// approximately fair share while aggregate throughput stays exactly at the
// pipe's rate — a cheap, deterministic approximation of processor sharing.
//
// Because the simulation kernel runs one process at a time and Reserve
// never yields, reservations are atomic and need no locking.
type Pipe struct {
	name        string
	bytesPerSec float64
	// freeAt is the virtual time (ns) at which the pipe next becomes idle.
	freeAt int64
	served int64 // total bytes reserved
	busy   int64 // accumulated service time in ns
}

// pipeChunk is Transfer's interleaving granularity.
const pipeChunk = 1 << 20 // 1 MiB

// NewPipe returns a pipe serving bytesPerSec.
func NewPipe(name string, bytesPerSec float64) *Pipe {
	if bytesPerSec <= 0 {
		panic("sim: pipe bandwidth must be positive")
	}
	return &Pipe{name: name, bytesPerSec: bytesPerSec}
}

// Name returns the pipe's name.
func (pp *Pipe) Name() string { return pp.name }

// Rate returns the pipe's service rate in bytes per second.
func (pp *Pipe) Rate() float64 { return pp.bytesPerSec }

// Served returns the total bytes the pipe has transferred or reserved.
func (pp *Pipe) Served() int64 { return pp.served }

// BusyTime returns the cumulative time the pipe spent serving transfers.
func (pp *Pipe) BusyTime() time.Duration { return time.Duration(pp.busy) }

func (pp *Pipe) serviceTime(n int64) int64 {
	ns := float64(n) / pp.bytesPerSec * 1e9
	t := int64(ns)
	if t < 1 {
		t = 1
	}
	return t
}

// Reserve books n bytes of service beginning no earlier than notBefore
// (virtual ns) and returns the completion time. It never blocks; callers
// that want flow interleaving should reserve chunk-sized pieces and sleep
// between reservations (as Transfer does).
func (pp *Pipe) Reserve(notBefore int64, n int64) (end int64) {
	if n <= 0 {
		if pp.freeAt > notBefore {
			return pp.freeAt
		}
		return notBefore
	}
	start := pp.freeAt
	if start < notBefore {
		start = notBefore
	}
	st := pp.serviceTime(n)
	pp.freeAt = start + st
	pp.served += n
	pp.busy += st
	return pp.freeAt
}

// Transfer moves n bytes through the pipe, blocking the calling process for
// the queueing plus service time. Zero or negative sizes cost nothing.
func (pp *Pipe) Transfer(p *Proc, n int64) {
	for n > 0 {
		c := min(n, pipeChunk)
		end := pp.Reserve(int64(p.Now()), c)
		p.Sleep(time.Duration(end - int64(p.Now())))
		n -= c
	}
}

// TransferFlat moves n bytes through the pipe as a single reservation —
// one queueing-plus-service sleep instead of a per-chunk event train.
// Concurrent users serialize whole transfers rather than interleaving, so
// it suits the coarse device and ingest coupling around a netsim flow,
// where transfers are already block- or segment-sized.
func (pp *Pipe) TransferFlat(p *Proc, n int64) {
	if n <= 0 {
		return
	}
	end := pp.Reserve(int64(p.Now()), n)
	p.Sleep(time.Duration(end - int64(p.Now())))
}

// Utilization returns served-time divided by elapsed, in [0,1], given the
// total elapsed simulation time.
func (pp *Pipe) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := float64(pp.busy) / float64(elapsed)
	if u > 1 {
		u = 1
	}
	return u
}
