package dfs

import (
	"maps"
	"slices"

	"hbb/internal/sim"
)

// Packet is the unit a block producer hands its consumer through a
// bounded sim.Store: a byte count, the end of an HDFS pipeline's block
// (Last), or the mark of a source that failed mid-stream (Err).
type Packet struct {
	Bytes int64
	Last  bool
	Err   bool
}

// StreamEvent is what a BlockStream reports to its BlockSource's Note.
type StreamEvent int

const (
	// Delivered: n bytes of the block reached the reader.
	Delivered StreamEvent = iota
	// BlockDone: the block was read in full.
	BlockDone
	// FellBack: the block's source failed mid-stream; the next Fetch
	// restarts it from another source.
	FellBack
	// Adopted: the block's read-ahead fetch became the current one.
	Adopted
)

// BlockSource is one file system's side of a BlockStream: its blocks,
// its ladder of sources and their producers, and its counters.
type BlockSource[S comparable] interface {
	// Size returns block i's length; zero-size blocks are skipped.
	Size(i int) int64
	// Fetch starts block i's producer from the cheapest live source not
	// in tried, adds that source to tried, and returns the producer's
	// packet stream. It fails when no untried live source is left.
	Fetch(i int, tried map[S]struct{}) (*sim.Store[Packet], error)
	// Note counts a stream event on the current block (n is Delivered's
	// bytes).
	Note(e StreamEvent, n int64)
}

// BlockStream is the one sequential block reader every block file system
// shares. Per block it pulls packets from the source's producer; when a
// packet marks a failure it restarts the block from the next untried
// source and skips the prefix already delivered, and a source that fails
// during the skip is replaced the same way. With readAhead > 0 it starts
// the next blocks' producers while the current block streams and adopts
// each when the read reaches it. S keys the sources a block has tried.
type BlockStream[S comparable] struct {
	src       BlockSource[S]
	blocks    int
	readAhead int

	idx       int
	closed    bool
	fetch     *sim.Store[Packet]
	tried     map[S]struct{}
	pending   int64 // bytes received from fetch but not yet delivered
	delivered int64 // bytes of block idx delivered
	ahead     map[int]aheadFetch[S]
	// err is sticky: once every source of a block has failed mid-stream,
	// no later Read can resume it. A block that had no live source to
	// start from is tried again by the next Read instead.
	err error
}

// aheadFetch is a read-ahead producer and the sources it has tried.
type aheadFetch[S comparable] struct {
	fetch *sim.Store[Packet]
	tried map[S]struct{}
}

// NewBlockStream returns a reader over src's first blocks blocks that
// keeps readAhead blocks' producers in flight ahead of the read. A file
// system's reader embeds it, so one allocation holds both.
func NewBlockStream[S comparable](src BlockSource[S], blocks, readAhead int) BlockStream[S] {
	return BlockStream[S]{src: src, blocks: blocks, readAhead: readAhead}
}

// Read implements Reader.
func (s *BlockStream[S]) Read(p *sim.Proc, n int64) (int64, error) {
	if s.closed {
		return 0, ErrClosed
	}
	if s.err != nil {
		return 0, s.err
	}
	var got int64
	for got < n {
		if s.idx >= s.blocks {
			return got, nil // EOF
		}
		size := s.src.Size(s.idx)
		if size == 0 {
			s.idx++
			continue
		}
		if s.fetch == nil {
			if err := s.open(); err != nil {
				return got, err
			}
		}
		if s.pending == 0 {
			pkt, ok := s.fetch.Get(p)
			if !ok || pkt.Err {
				if err := s.fallBack(p); err != nil {
					s.err = err
					return got, err
				}
				continue
			}
			s.pending = pkt.Bytes
		}
		take := min(n-got, s.pending)
		s.pending -= take
		s.delivered += take
		got += take
		s.src.Note(Delivered, take)
		if s.delivered >= size {
			s.src.Note(BlockDone, 0)
			s.drop()
			s.idx++
		}
	}
	return got, nil
}

// open makes block idx's producer current, adopting its read-ahead fetch
// when there is one, then tops up the read-ahead.
func (s *BlockStream[S]) open() error {
	s.delivered = 0
	if a, ok := s.ahead[s.idx]; ok {
		delete(s.ahead, s.idx)
		s.fetch, s.tried = a.fetch, a.tried
		s.src.Note(Adopted, 0)
	} else {
		s.tried = make(map[S]struct{})
		fetch, err := s.src.Fetch(s.idx, s.tried)
		if err != nil {
			return err
		}
		s.fetch = fetch
	}
	s.pending = 0
	s.prefetch()
	return nil
}

// prefetch starts the producers of the readAhead blocks after idx that
// have none. A block with no live source yet is left for the read to
// surface when it gets there.
func (s *BlockStream[S]) prefetch() {
	for i := s.idx + 1; i <= s.idx+s.readAhead && i < s.blocks; i++ {
		if _, ok := s.ahead[i]; ok || s.src.Size(i) == 0 {
			continue
		}
		tried := make(map[S]struct{})
		fetch, err := s.src.Fetch(i, tried)
		if err != nil {
			return
		}
		if s.ahead == nil {
			s.ahead = make(map[int]aheadFetch[S])
		}
		s.ahead[i] = aheadFetch[S]{fetch: fetch, tried: tried}
	}
}

// fallBack restarts block idx from its next untried source and skips the
// bytes already delivered, until a source gets through the skip or none
// is left.
func (s *BlockStream[S]) fallBack(p *sim.Proc) error {
	for {
		s.src.Note(FellBack, 0)
		fetch, err := s.src.Fetch(s.idx, s.tried)
		if err != nil {
			return err
		}
		s.fetch, s.pending = fetch, 0
		if s.skip(p, s.delivered) {
			return nil
		}
	}
}

// skip drops n bytes from the current producer; false if it failed first.
func (s *BlockStream[S]) skip(p *sim.Proc, n int64) bool {
	for n > 0 {
		if s.pending == 0 {
			pkt, ok := s.fetch.Get(p)
			if !ok || pkt.Err {
				return false
			}
			s.pending = pkt.Bytes
		}
		take := min(n, s.pending)
		s.pending -= take
		n -= take
	}
	return true
}

// drop releases the current producer: its next PutWait reports the drop
// and it stops.
func (s *BlockStream[S]) drop() {
	if s.fetch != nil {
		s.fetch.Close()
		s.fetch = nil
	}
	s.pending = 0
}

// Close implements Reader: it releases the current producer and every
// read-ahead one, in block order.
func (s *BlockStream[S]) Close(p *sim.Proc) error {
	if s.closed {
		return ErrClosed
	}
	s.closed = true
	s.drop()
	if len(s.ahead) > 0 {
		for _, i := range slices.Sorted(maps.Keys(s.ahead)) {
			s.ahead[i].fetch.Close()
		}
		s.ahead = nil
	}
	return nil
}
