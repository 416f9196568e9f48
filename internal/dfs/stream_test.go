package dfs

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"hbb/internal/sim"
)

// ladderSource serves each block from sources 0, 1, 2 in turn, one byte a
// packet; fail[{block, source}] is the byte count a source delivers
// before it sends an error packet.
type ladderSource struct {
	env   *sim.Env
	sizes []int64
	fail  map[[2]int]int64
	log   []string
}

func (s *ladderSource) Size(i int) int64 { return s.sizes[i] }

func (s *ladderSource) Fetch(i int, tried map[int]struct{}) (*sim.Store[Packet], error) {
	src := len(tried)
	if src == 3 {
		return nil, ErrCorrupt
	}
	tried[src] = struct{}{}
	s.log = append(s.log, fmt.Sprintf("fetch b%d s%d", i, src))
	failAt, fails := s.fail[[2]int{i, src}]
	out := sim.NewBounded[Packet](2)
	s.env.Spawn("producer", func(p *sim.Proc) {
		for sent := int64(0); sent < s.sizes[i]; sent++ {
			if fails && sent == failAt {
				out.PutWait(p, Packet{Err: true})
				return
			}
			if !out.PutWait(p, Packet{Bytes: 1}) {
				return
			}
		}
	})
	return out, nil
}

func (s *ladderSource) Note(e StreamEvent, n int64) {
	if e != Delivered {
		s.log = append(s.log, [...]string{BlockDone: "done", FellBack: "fell back", Adopted: "adopted"}[e])
	}
}

// TestBlockStreamLadder reads blocks of sizes 0, 4, 0, 4 with two blocks
// of read-ahead. Block 1's first source fails after 3 bytes and its second
// fails during the skip of those 3, so its third serves it; block 3 is
// fetched ahead and adopted; the empty blocks are never fetched.
func TestBlockStreamLadder(t *testing.T) {
	env := sim.New(1)
	src := &ladderSource{env: env, sizes: []int64{0, 4, 0, 4},
		fail: map[[2]int]int64{{1, 0}: 3, {1, 1}: 1}}
	s := NewBlockStream[int](src, len(src.sizes), 2)
	env.Spawn("reader", func(p *sim.Proc) {
		n, err := s.Read(p, 100)
		if n != 8 || err != nil {
			t.Errorf("Read = %d, %v; want 8, nil", n, err)
		}
		if n, err := s.Read(p, 1); n != 0 || err != nil {
			t.Errorf("Read at EOF = %d, %v", n, err)
		}
		if err := s.Close(p); err != nil {
			t.Error(err)
		}
		if _, err := s.Read(p, 1); !errors.Is(err, ErrClosed) {
			t.Errorf("Read after Close: %v", err)
		}
	})
	env.Run()
	if dl := env.Deadlocked(); len(dl) != 0 {
		t.Fatalf("deadlocked: %v", dl)
	}
	want := []string{
		"fetch b1 s0", "fetch b3 s0",
		"fell back", "fetch b1 s1", "fell back", "fetch b1 s2", "done",
		"adopted", "done",
	}
	if !slices.Equal(src.log, want) {
		t.Errorf("log\n got %q\nwant %q", src.log, want)
	}
}

// TestBlockStreamFailsWhenNoSourceIsLeft fails every source of a block
// and closes the stream with a read-ahead producer still parked on a full
// store: the read reports the source's error, so does every later read
// (none waits on the dead producer), and Close stops the parked one.
func TestBlockStreamFailsWhenNoSourceIsLeft(t *testing.T) {
	env := sim.New(1)
	src := &ladderSource{env: env, sizes: []int64{4, 8},
		fail: map[[2]int]int64{{0, 0}: 2, {0, 1}: 0, {0, 2}: 1}}
	s := NewBlockStream[int](src, len(src.sizes), 1)
	env.Spawn("reader", func(p *sim.Proc) {
		n, err := s.Read(p, 100)
		if n != 2 || !errors.Is(err, ErrCorrupt) {
			t.Errorf("Read = %d, %v; want 2, ErrCorrupt", n, err)
		}
		if n, err := s.Read(p, 100); n != 0 || !errors.Is(err, ErrCorrupt) {
			t.Errorf("Read after the failure = %d, %v; want 0, ErrCorrupt", n, err)
		}
		s.Close(p)
	})
	env.Run()
	if dl := env.Deadlocked(); len(dl) != 0 {
		t.Fatalf("deadlocked: %v", dl)
	}
}
