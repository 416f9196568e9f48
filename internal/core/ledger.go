package core

import (
	"fmt"

	"hbb/internal/storage"
)

// The ledger is the record, kept on each block, of every hold it has: a
// reservation or footprint on each buffer share (held; the share indexes
// its holders and sums them in bytes), its local tee's bytes on a
// node-local device (localDev, localBytes), and its writer's slot in
// Instance.openBlocks (open). Each kind has one take and one release, and
// nothing else changes those sums. A release returns exactly what the
// record says, and panics on a hold the block does not have. A share
// serves a block's chunks while the block holds it, so releasing the hold
// is the buffer's delete; it costs no fabric time, since the manager
// piggybacks invalidations on its existing control traffic.

// shareHold is a block's bytes on one buffer share.
type shareHold struct {
	s *BufferServer
	n int64
}

func (b *bbBlock) noHold(where string) {
	panic(fmt.Sprintf("core: block %d (%v) holds nothing on %s", b.id, b.inst.pool.scheme, where))
}

func (b *bbBlock) takeShare(s *BufferServer, n int64) {
	if _, ok := s.holders[b]; ok {
		panic(fmt.Sprintf("core: block %d (%v) already holds %s", b.id, b.inst.pool.scheme, s.name))
	}
	s.bytes += n
	s.holders[b] = struct{}{}
	b.held = append(b.held, shareHold{s, n})
}

func (b *bbBlock) releaseShare(s *BufferServer) {
	for i, h := range b.held {
		if h.s == s {
			s.bytes -= h.n
			delete(s.holders, b)
			b.held = append(b.held[:i], b.held[i+1:]...)
			return
		}
	}
	b.noHold(s.name)
}

func (b *bbBlock) takeLocal(dev *storage.Device, n int64) error {
	if err := dev.Alloc(n); err != nil {
		return err
	}
	b.localDev, b.localBytes = dev, n
	return nil
}

// releaseLocal frees the block's local bytes: the replica is gone.
func (b *bbBlock) releaseLocal() {
	if b.localDev == nil {
		b.noHold("a local device")
	}
	b.localDev.Dealloc(b.localBytes)
	b.localDev, b.localBytes, b.localNode = nil, 0, -1
}

func (b *bbBlock) takeOpen() {
	b.open = true
	b.inst.openBlocks++
}

func (b *bbBlock) releaseOpen() {
	if !b.open {
		b.noHold("openBlocks")
	}
	b.open = false
	b.inst.openBlocks--
}

// dropHolds releases every share and local hold the record lists, in the
// order taken, waking writers stalled on the freed space.
func (b *bbBlock) dropHolds() {
	for len(b.held) > 0 {
		s := b.held[0].s
		b.releaseShare(s)
		s.signalFlushProgress()
	}
	if b.localDev != nil {
		b.releaseLocal()
	}
}
