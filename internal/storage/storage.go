// Package storage models block storage devices — RAM disks, SSDs, HDDs, and
// parallel-file-system storage targets — with bandwidth, per-operation
// latency, and capacity accounting, on top of the sim kernel.
package storage

import (
	"errors"
	"fmt"
	"time"

	"hbb/internal/sim"
)

// Kind classifies a device.
type Kind int

// Device kinds.
const (
	KindRAMDisk Kind = iota
	KindSSD
	KindHDD
	KindOST
)

// String returns the kind's name.
func (k Kind) String() string {
	switch k {
	case KindRAMDisk:
		return "ramdisk"
	case KindSSD:
		return "ssd"
	case KindHDD:
		return "hdd"
	case KindOST:
		return "ost"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// Profile describes a device's performance and capacity.
type Profile struct {
	Kind         Kind
	ReadBW       float64 // bytes/sec
	WriteBW      float64 // bytes/sec
	ReadLatency  time.Duration
	WriteLatency time.Duration
	Capacity     int64 // bytes; 0 means unlimited
}

// Standard device profiles, calibrated to commodity hardware of the paper's
// era (2014-2015 HPC nodes). Capacity is a parameter because it is the
// knob the paper's motivation turns on (SSD-less / small-local-storage HPC
// nodes).

// RAMDiskProfile returns a tmpfs-like profile.
func RAMDiskProfile(capacity int64) Profile {
	return Profile{Kind: KindRAMDisk, ReadBW: 5e9, WriteBW: 4.5e9,
		ReadLatency: time.Microsecond, WriteLatency: time.Microsecond, Capacity: capacity}
}

// SSDProfile returns a SATA-SSD-like profile.
func SSDProfile(capacity int64) Profile {
	return Profile{Kind: KindSSD, ReadBW: 500e6, WriteBW: 450e6,
		ReadLatency: 60 * time.Microsecond, WriteLatency: 70 * time.Microsecond, Capacity: capacity}
}

// HDDProfile returns a 7.2k-rpm-disk-like profile.
func HDDProfile(capacity int64) Profile {
	return Profile{Kind: KindHDD, ReadBW: 140e6, WriteBW: 130e6,
		ReadLatency: 4 * time.Millisecond, WriteLatency: 4 * time.Millisecond, Capacity: capacity}
}

// RAID0 scales a profile's bandwidth by the stripe width n, modelling a
// software RAID-0 set of identical devices exposed as one volume.
func RAID0(base Profile, n int) Profile {
	if n < 1 {
		n = 1
	}
	base.ReadBW *= float64(n)
	base.WriteBW *= float64(n)
	return base
}

// OSTProfile returns a Lustre object-storage-target backend profile
// (RAID-backed spinning storage with a server in front).
func OSTProfile(capacity int64) Profile {
	return Profile{Kind: KindOST, ReadBW: 500e6, WriteBW: 500e6,
		ReadLatency: 500 * time.Microsecond, WriteLatency: 500 * time.Microsecond, Capacity: capacity}
}

// ErrNoSpace is returned by Alloc when a device is full.
var ErrNoSpace = errors.New("storage: device full")

// Device is a simulated block device. Read/Write charge time; Alloc/Free
// account capacity. The two are separate because callers (file systems)
// usually reserve space before streaming data into it.
type Device struct {
	name string
	prof Profile
	pipe *sim.Pipe
	used int64

	readBytes  int64
	writeBytes int64
	readOps    int64
	writeOps   int64

	idle []*flatWrite // finished StartWriteFlat chains, for reuse
}

// NewDevice returns a device with the given profile. The device's single
// bandwidth pipe is shared between reads and writes (they contend), with
// asymmetric rates folded in by scaling the charged size.
func NewDevice(name string, prof Profile) *Device {
	base := prof.ReadBW
	if prof.WriteBW > base {
		base = prof.WriteBW
	}
	if base <= 0 {
		panic("storage: device must have positive bandwidth")
	}
	return &Device{name: name, prof: prof, pipe: sim.NewPipe(name, base)}
}

// Name returns the device name.
func (d *Device) Name() string { return d.name }

// Profile returns the device profile.
func (d *Device) Profile() Profile { return d.prof }

// Capacity returns total capacity in bytes (0 = unlimited).
func (d *Device) Capacity() int64 { return d.prof.Capacity }

// Used returns allocated bytes.
func (d *Device) Used() int64 { return d.used }

// Free returns remaining capacity; for unlimited devices it returns a huge
// positive number.
func (d *Device) Free() int64 {
	if d.prof.Capacity == 0 {
		return 1 << 62
	}
	return d.prof.Capacity - d.used
}

// Alloc reserves n bytes of capacity, failing with ErrNoSpace if the device
// cannot hold them.
func (d *Device) Alloc(n int64) error {
	if n < 0 {
		panic("storage: negative alloc")
	}
	if d.prof.Capacity != 0 && d.used+n > d.prof.Capacity {
		return fmt.Errorf("%w: %s needs %d, has %d free", ErrNoSpace, d.name, n, d.Free())
	}
	d.used += n
	return nil
}

// Dealloc releases n bytes of capacity.
func (d *Device) Dealloc(n int64) {
	d.used -= n
	if d.used < 0 {
		panic("storage: freed more than allocated on " + d.name)
	}
}

func (d *Device) scale(n int64, bw float64) int64 {
	base := d.pipe.Rate()
	scaled := int64(float64(n) * base / bw)
	if scaled < 1 && n > 0 {
		scaled = 1
	}
	return scaled
}

// Write charges the time to persist n bytes (latency + bandwidth), blocking
// the process. It does not touch capacity accounting.
func (d *Device) Write(p *sim.Proc, n int64) {
	d.writeOps++
	d.writeBytes += n
	p.Sleep(d.prof.WriteLatency)
	d.pipe.Transfer(p, d.scale(n, d.prof.WriteBW))
}

// Read charges the time to read n bytes, blocking the process.
func (d *Device) Read(p *sim.Proc, n int64) {
	d.readOps++
	d.readBytes += n
	p.Sleep(d.prof.ReadLatency)
	d.pipe.Transfer(p, d.scale(n, d.prof.ReadBW))
}

// WriteFlat charges the same latency and bandwidth as Write but books the
// device in one reservation (a single wake) instead of the chunked
// interleaving train — the device-rate-coupled sink behind a segment that
// arrived over a flow. It is the flat-write chain with the caller as its
// continuation: the caller parks until the reservation ends.
func (d *Device) WriteFlat(p *sim.Proc, n int64) {
	d.flatWrite(p.Env(), n, p.Cont()).begin()
	p.Park()
}

// StartWriteFlat is WriteFlat for a writer that never blocks: done runs
// where WriteFlat would return. The chain starts with a hop at the current
// instant, where a process running WriteFlat would first wake, so the
// event trace is that process's.
func (d *Device) StartWriteFlat(env *sim.Env, n int64, done func()) {
	w := d.flatWrite(env, n, sim.Callback(done))
	env.At(env.Now(), w.step)
}

// flatWrite takes an idle chain (or a new one) for a flat write of n bytes
// ending in k.
func (d *Device) flatWrite(env *sim.Env, n int64, k sim.Cont) *flatWrite {
	var w *flatWrite
	if i := len(d.idle) - 1; i >= 0 {
		w = d.idle[i]
		d.idle = d.idle[:i]
	} else {
		w = &flatWrite{d: d}
		w.step = w.advance
	}
	w.env, w.n, w.k, w.booking = env, n, k, false
	return w
}

// flatWrite is one flat write in flight. Its step, bound once, is every
// callback of the chain, so a device that has warmed up its idle list
// starts a write without allocating.
type flatWrite struct {
	d       *Device
	env     *sim.Env
	n       int64
	k       sim.Cont
	step    func()
	booking bool // the write latency is over: the next step books the device
}

// advance runs the chain's next step: the leading hop of StartWriteFlat,
// or the booking after the write latency.
func (w *flatWrite) advance() {
	if !w.booking {
		w.begin()
		return
	}
	d, env, k := w.d, w.env, w.k
	end, ok := d.bookFlatWrite(env.Now(), w.n)
	w.env, w.k = nil, sim.Cont{}
	d.idle = append(d.idle, w)
	if ok {
		env.Resume(end, k)
		return
	}
	env.Complete(k) // nothing to book: the writer carries on at this wake
}

// begin counts the write and waits out its latency.
func (w *flatWrite) begin() {
	w.booking = true
	w.env.After(w.d.startFlatWrite(w.n), w.step)
}

// startFlatWrite counts a flat write of n bytes and returns the latency
// before it books the device.
func (d *Device) startFlatWrite(n int64) time.Duration {
	d.writeOps++
	d.writeBytes += n
	return d.prof.WriteLatency
}

// bookFlatWrite reserves the device for n written bytes from now as one
// reservation and returns when it ends; ok is false when there is nothing
// to book.
func (d *Device) bookFlatWrite(now time.Duration, n int64) (end time.Duration, ok bool) {
	scaled := d.scale(n, d.prof.WriteBW)
	if scaled <= 0 {
		return now, false
	}
	return time.Duration(d.pipe.Reserve(int64(now), scaled)), true
}

// ReadFlat is Read with a single flat reservation, for readers that then
// ship the segment over a flow.
func (d *Device) ReadFlat(p *sim.Proc, n int64) {
	d.readOps++
	d.readBytes += n
	p.Sleep(d.prof.ReadLatency)
	d.pipe.TransferFlat(p, d.scale(n, d.prof.ReadBW))
}

// Stats reports cumulative traffic.
func (d *Device) Stats() (readBytes, writeBytes, readOps, writeOps int64) {
	return d.readBytes, d.writeBytes, d.readOps, d.writeOps
}

// BusyTime returns the cumulative time the device spent serving I/O.
func (d *Device) BusyTime() time.Duration { return d.pipe.BusyTime() }
