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
// arrived over a flow.
func (d *Device) WriteFlat(p *sim.Proc, n int64) {
	d.writeOps++
	d.writeBytes += n
	p.Sleep(d.prof.WriteLatency)
	d.pipe.TransferFlat(p, d.scale(n, d.prof.WriteBW))
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
