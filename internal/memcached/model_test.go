package memcached

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
)

// modelItem is the model's stored item: one heap object holding its own
// value slice, the layout the engine's chunks replace.
type modelItem struct {
	key   string
	value []byte // nil for a virtual item
	size  int
	flags uint32
	cas   uint64
	exp   int64
	class int
	pins  int
	dead  bool
	lru   *list.Element // its place on its class's LRU list while stored
}

// modelClass is the model's ledger of one slab class and its LRU list,
// most recently used at the front.
type modelClass struct {
	pages, free, held, freeMem int64
	lru                        list.List
}

// modelRes is an open reservation: the item it will store, the condition
// it stores under, and the CAS of the key's item whose chunk it took.
type modelRes struct {
	mi        *modelItem
	mode      StoreMode
	expect    uint64
	displaced uint64
}

// model is a plain-map engine with the slab budget kept as counters and
// each class's LRU as a list: the store rules written out once, slowly.
type model struct {
	cfg      Config
	now      *int64
	items    map[string]*modelItem
	casSeq   uint64
	flushAt  uint64
	stats    Stats
	slabs    []SlabStats // the class table: ChunkSize only
	classes  []modelClass
	pages    int64
	maxPages int64
}

func newModel(e *Engine, now *int64) *model {
	m := &model{cfg: e.Config(), now: now, items: map[string]*modelItem{}, slabs: e.Slabs()}
	m.classes = make([]modelClass, len(m.slabs))
	m.stats.LimitMaxBytes = m.cfg.MemLimit
	m.stats.HashPowerLevel, m.stats.HashBytes = int64(hashPowerStart), 4<<hashPowerStart
	m.maxPages = max(m.cfg.MemLimit/max(int64(pageSize), int64(m.cfg.MaxItemSize)), 1)
	return m
}

func (m *model) expired(it *modelItem) bool {
	return it.cas < m.flushAt || (it.exp != 0 && it.exp <= *m.now)
}

func (m *model) lookup(key string) *modelItem {
	it := m.items[key]
	if it != nil && m.expired(it) {
		m.stats.Expired++
		m.remove(it)
		return nil
	}
	return it
}

func (m *model) foot(it *modelItem) int64 { return int64(itemFootprint(it.key, it.size)) }

func (m *model) touch(it *modelItem) { m.classes[it.class].lru.MoveToFront(it.lru) }

func (m *model) remove(it *modelItem) {
	delete(m.items, it.key)
	m.classes[it.class].lru.Remove(it.lru)
	it.lru = nil
	m.stats.CurrItems--
	m.stats.Bytes -= m.foot(it)
	if it.pins > 0 {
		it.dead = true
		m.classes[it.class].held++
		return
	}
	m.giveBack(it)
}

func (m *model) giveBack(it *modelItem) {
	c := &m.classes[it.class]
	c.free++
	if it.value != nil {
		c.freeMem++
	}
}

// room frees a chunk of class ci for a store to the key whose item is old:
// a free chunk, else a new page, else old's own chunk if old is in the
// class and unpinned (its CAS is returned), else the least-recently-used
// unpinned item's. With every item pinned it fails and evicts nothing.
func (m *model) room(ci int, old *modelItem) (uint64, error) {
	c := &m.classes[ci]
	if c.free == 0 && m.pages < m.maxPages {
		m.pages++
		c.pages++
		c.free += max(int64(pageSize), int64(m.cfg.MaxItemSize)) / int64(m.slabs[ci].ChunkSize)
	}
	if c.free > 0 {
		return 0, nil
	}
	if old != nil && old.class == ci && old.pins == 0 {
		m.remove(old)
		return old.cas, nil
	}
	for el := c.lru.Back(); el != nil; el = el.Prev() {
		if v := el.Value.(*modelItem); v.pins == 0 {
			if m.expired(v) {
				m.stats.Expired++
			} else {
				m.stats.Evictions++
			}
			m.remove(v)
			return 0, nil
		}
	}
	return 0, ErrNoMemory
}

func (m *model) admits(cur uint64, mode StoreMode, expect uint64) error {
	switch {
	case mode == StoreAdd && cur != 0, mode == StoreReplace && cur == 0:
		return ErrNotStored
	case mode == StoreCAS && cur == 0:
		m.stats.CasMisses++
		return ErrNotFound
	case mode == StoreCAS && cur != expect:
		m.stats.CasBadval++
		return ErrExists
	}
	return nil
}

func (m *model) reserve(it Item, mode StoreMode, expect uint64, real bool) (*modelRes, error) {
	m.stats.CmdSet++
	if it.Size < 0 || (it.Value != nil && it.Size != 0 && it.Size != len(it.Value)) {
		return nil, ErrInvalidArg
	}
	if it.Value != nil {
		it.Size = len(it.Value)
	}
	foot := itemFootprint(it.Key, it.Size)
	if foot > m.cfg.MaxItemSize {
		return nil, ErrTooLarge
	}
	old := m.lookup(it.Key)
	var cur uint64
	if old != nil {
		cur = old.cas
	}
	if err := m.admits(cur, mode, expect); err != nil {
		return nil, err
	}
	ci := 0
	for m.slabs[ci].ChunkSize < foot {
		ci++
	}
	displaced, err := m.room(ci, old)
	if err != nil {
		return nil, err
	}
	c := &m.classes[ci]
	if real && c.freeMem > 0 {
		c.freeMem--
	}
	c.free--
	c.held++
	mi := &modelItem{key: it.Key, size: it.Size, flags: it.Flags, exp: it.ExpireAt, class: ci}
	if real {
		mi.value = append(make([]byte, 0, it.Size), it.Value...)[:it.Size]
	}
	return &modelRes{mi, mode, expect, displaced}, nil
}

func (m *model) commit(r *modelRes) (uint64, error) {
	mi := r.mi
	m.classes[mi.class].held--
	old := m.lookup(mi.key)
	var cur uint64
	if old != nil {
		cur = old.cas
	} else if r.displaced >= m.flushAt {
		cur = r.displaced
	}
	if err := m.admits(cur, r.mode, r.expect); err != nil {
		m.giveBack(mi)
		return 0, err
	}
	if r.mode == StoreCAS {
		m.stats.CasHits++
	}
	if old != nil {
		m.remove(old)
	}
	m.casSeq++
	mi.cas = m.casSeq
	m.items[mi.key] = mi
	mi.lru = m.classes[mi.class].lru.PushFront(mi)
	m.stats.CurrItems++
	m.stats.TotalItems++
	m.stats.Bytes += m.foot(mi)
	// The index doubles once it holds more than 1.5 items a bucket.
	if 2*m.stats.CurrItems > 3<<m.stats.HashPowerLevel {
		m.stats.HashPowerLevel++
		m.stats.HashBytes *= 2
	}
	return mi.cas, nil
}

func (m *model) abort(r *modelRes) {
	m.classes[r.mi.class].held--
	m.giveBack(r.mi)
}

func (m *model) set(it Item) (uint64, error) {
	r, err := m.reserve(it, StoreSet, 0, it.Value != nil)
	if err != nil {
		return 0, err
	}
	return m.commit(r)
}

func (m *model) get(key string) *modelItem {
	m.stats.CmdGet++
	it := m.lookup(key)
	if it == nil {
		m.stats.GetMisses++
		return nil
	}
	m.stats.GetHits++
	m.touch(it)
	return it
}

func (m *model) incrDecr(key string, delta int64, init *uint64, exp int64) (uint64, error) {
	it := m.lookup(key)
	if it == nil {
		if init == nil {
			return 0, ErrNotFound
		}
		_, err := m.set(Item{Key: key, Value: strconv.AppendUint(nil, *init, 10), ExpireAt: exp})
		return *init, err
	}
	if it.value == nil {
		return 0, ErrBadDelta
	}
	cur, err := strconv.ParseUint(string(it.value), 10, 64)
	if err != nil {
		return 0, ErrBadDelta
	}
	next := cur + uint64(delta)
	if delta < 0 {
		next = cur - min(cur, uint64(-delta))
	}
	_, err = m.set(Item{Key: key, Value: strconv.AppendUint(nil, next, 10), Flags: it.flags, ExpireAt: it.exp})
	return next, err
}

func (m *model) release(mi *modelItem) {
	mi.pins--
	if mi.pins == 0 && mi.dead {
		m.classes[mi.class].held--
		m.giveBack(mi)
	}
}

// program is a fuzz input read as a sequence of choices; it reads as
// zeros once spent.
type program []byte

func (p *program) next(n int) int {
	if len(*p) == 0 {
		return 0
	}
	v := int((*p)[0])
	*p = (*p)[1:]
	return v % n
}

func (p *program) size(n int) int { return (p.next(256)<<8 | p.next(256)) % n }

// checkModel compares one engine call's outcome with the model's.
func checkModel(t *testing.T, step int, what string, got, want uint64, gotErr, wantErr error) {
	t.Helper()
	if got != want || !errors.Is(gotErr, wantErr) || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("step %d %s: engine %d, %v; model %d, %v", step, what, got, gotErr, want, wantErr)
	}
}

// checkItem compares an item the engine returned with the model's.
func checkItem(t *testing.T, step int, what string, it Item, mi *modelItem) {
	t.Helper()
	if it.Key != mi.key || it.Size != mi.size || it.Flags != mi.flags || it.CAS != mi.cas ||
		it.ExpireAt != mi.exp || (it.Value == nil) != (mi.value == nil) || !bytes.Equal(it.Value, mi.value) {
		t.Fatalf("step %d %s: engine %+v, model %+v", step, what, it, *mi)
	}
}

// runModel plays a program against a fresh engine and the model: real
// small and large items, virtual items, every store mode, Get, Delete,
// Touch, IncrDecr, Flush, reservations committed and aborted, pins held
// across removal, expiry on a stepped clock, and fills of fresh keys. The
// program's first choice picks the engine: one with room for everything,
// or four pages over a few coarse classes, which fills (evicting, reusing
// an overwritten key's own chunk, skipping pinned items and failing with
// every item pinned). Every result, the counters (the index's size among
// them) and the slab ledger must match the model's after every step, and
// the index must hold the model's live keys at the end.
func runModel(t *testing.T, p program) {
	if len(p) > 4096 {
		p = p[:4096]
	}
	now := int64(1)
	cfg := Config{MemLimit: 256 << 20, Clock: func() int64 { return now }}
	if p.next(2) == 1 {
		cfg.MemLimit, cfg.growthFactor = 4<<20, 2
	}
	e := NewEngine(cfg)
	defer e.Close()
	m := newModel(e, &now)
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	type pin struct {
		p    Pin
		mi   *modelItem
		want []byte
	}
	type open struct {
		r  Reservation
		mr *modelRes
	}
	var pins []pin
	var opens []open
	for step := 0; len(p) > 0; step++ {
		k := keys[p.next(len(keys))]
		exp := int64(0)
		if p.next(4) == 0 {
			exp = now + int64(p.next(4))
		}
		value := func() []byte {
			switch p.next(4) {
			case 0:
				return strconv.AppendUint(nil, uint64(p.next(1000)), 10)
			case 1:
				return pattern(step, 5000+p.size(35000))
			}
			return pattern(step, p.size(300))
		}
		expect := func() uint64 {
			v := uint64(p.next(1000))
			if mi := m.items[k]; mi != nil && v < 500 {
				return mi.cas
			}
			return v
		}
		switch op := p.next(17); op {
		case 0, 1, 2, 3:
			mode, token := StoreMode(op), expect()
			it := Item{Key: k, Value: value(), Flags: uint32(step), ExpireAt: exp}
			var cas uint64
			var err error
			if mode == StoreSet {
				cas, err = e.Set(it)
			} else {
				cas, err = put(e, it, mode, token)
			}
			// Set stores a nil value as a virtual item; the other modes go
			// through Reserve, which always takes a region chunk.
			var wcas uint64
			r, werr := m.reserve(it, mode, token, mode != StoreSet || it.Value != nil)
			if werr == nil {
				wcas, werr = m.commit(r)
			}
			checkModel(t, step, "store", cas, wcas, err, werr)
		case 4:
			it := Item{Key: k, Size: p.size(200_000), Flags: uint32(step), ExpireAt: exp}
			cas, err := e.Set(it)
			wcas, werr := m.set(it)
			checkModel(t, step, "virtual set", cas, wcas, err, werr)
		case 5, 6:
			it, err := e.Get(k)
			mi := m.get(k)
			if (err == nil) != (mi != nil) {
				t.Fatalf("step %d get %s: engine %v, model %v", step, k, err, mi)
			}
			if mi != nil {
				checkItem(t, step, "get", it, mi)
			}
		case 7:
			err := e.Delete(k)
			var werr error
			if mi := m.lookup(k); mi == nil {
				m.stats.DeleteMisses++
				werr = ErrNotFound
			} else {
				m.stats.DeleteHits++
				m.remove(mi)
			}
			checkModel(t, step, "delete", 0, 0, err, werr)
		case 8:
			err := e.Touch(k, exp)
			var werr error
			if mi := m.lookup(k); mi == nil {
				werr = ErrNotFound
			} else {
				mi.exp = exp
				m.touch(mi)
			}
			checkModel(t, step, "touch", 0, 0, err, werr)
		case 9:
			delta := int64(p.next(200)) - 100
			var init *uint64
			if p.next(2) == 0 {
				v := uint64(p.next(100))
				init = &v
			}
			v, err := e.IncrDecr(k, delta, init, exp)
			wv, werr := m.incrDecr(k, delta, init, exp)
			checkModel(t, step, "incr/decr", v, wv, err, werr)
		case 10:
			if p.next(4) == 0 {
				e.Flush()
				m.flushAt = m.casSeq + 1
			}
		case 11:
			now += int64(p.next(3))
		case 12:
			if len(opens) == 4 {
				continue
			}
			mode, token := StoreMode(p.next(4)), expect()
			v := value()
			it := Item{Key: k, Size: len(v), Flags: uint32(step), ExpireAt: exp}
			r, err := e.Reserve(it, mode, token)
			it.Value = v
			mr, werr := m.reserve(it, mode, token, true)
			checkModel(t, step, "reserve", 0, 0, err, werr)
			if err == nil {
				copy(r.Value, v)
				opens = append(opens, open{r, mr})
			}
		case 13:
			if len(opens) == 0 {
				continue
			}
			j := p.next(len(opens))
			o := opens[j]
			opens = append(opens[:j], opens[j+1:]...)
			if p.next(3) == 0 {
				e.Abort(o.r)
				m.abort(o.mr)
				continue
			}
			cas, err := e.Commit(o.r)
			wcas, werr := m.commit(o.mr)
			checkModel(t, step, "commit", cas, wcas, err, werr)
		case 14:
			if len(pins) == 16 {
				continue
			}
			pn, err := e.Acquire(k)
			mi := m.get(k)
			if (err == nil) != (mi != nil) {
				t.Fatalf("step %d acquire %s: engine %v, model %v", step, k, err, mi)
			}
			if mi != nil {
				checkItem(t, step, "acquire", pn.Item, mi)
				mi.pins++
				pins = append(pins, pin{pn, mi, mi.value})
			}
		case 15:
			if len(pins) == 0 {
				continue
			}
			j := p.next(len(pins))
			pn := pins[j]
			pins = append(pins[:j], pins[j+1:]...)
			if !bytes.Equal(pn.p.Value, pn.want) {
				t.Fatalf("step %d: the bytes under a pin of %s changed", step, pn.mi.key)
			}
			e.Release(pn.p)
			m.release(pn.mi)
		case 16:
			// A fill: up to 128 items of one size under fresh keys, real
			// or virtual.
			n, v, virtual := 1+p.next(128), value(), p.next(2) == 1
			for i := 0; i < n; i++ {
				it := Item{Key: fmt.Sprintf("fill-%d-%d", step, i), Value: v, Flags: uint32(step), ExpireAt: exp}
				if virtual {
					it.Value, it.Size = nil, len(v)
				}
				cas, err := e.Set(it)
				wcas, werr := m.set(it)
				checkModel(t, step, "fill", cas, wcas, err, werr)
			}
		}
		compareModel(t, step, e, m)
	}
	for _, pn := range pins {
		e.Release(pn.p)
		m.release(pn.mi)
	}
	for _, o := range opens {
		e.Abort(o.r)
		m.abort(o.mr)
	}
	compareModel(t, -1, e, m)
	live := map[string]bool{}
	for k, mi := range m.items {
		live[k] = !m.expired(mi)
	}
	for _, k := range keysOf(e) {
		if !live[k] {
			t.Fatalf("the index holds %s, which the model holds no live item under", k)
		}
		delete(live, k)
	}
	for k, l := range live {
		if l {
			t.Fatalf("the index misses %s", k)
		}
	}
}

// keysOf returns the keys of the engine's unexpired items, from its index.
func keysOf(e *Engine) []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	var keys []string
	for _, r := range e.table {
		for ; r != 0; r = e.slabs.hdr(r).hnext {
			if !e.expired(e.slabs.hdr(r)) {
				keys = append(keys, string(e.slabs.key(r)))
			}
		}
	}
	return keys
}

// compareModel compares the counters and every class's ledger.
func compareModel(t *testing.T, step int, e *Engine, m *model) {
	t.Helper()
	if st := e.Stats(); st != m.stats {
		t.Fatalf("step %d stats:\nengine %+v\nmodel  %+v", step, st, m.stats)
	}
	for i, s := range e.Slabs() {
		c := &m.classes[i]
		if s.Pages != c.pages || s.Free != c.free || s.Items != int64(c.lru.Len()) || s.Held != c.held || s.FreeMem != c.freeMem {
			t.Fatalf("step %d class %d (%d B): engine %+v, model pages %d free %d items %d held %d free memory %d",
				step, i, s.ChunkSize, s, c.pages, c.free, c.lru.Len(), c.held, c.freeMem)
		}
	}
}

// seedProgram is a random program of n choices.
func seedProgram(seed int64, n int) program {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// asm assembles a runModel program: each choice is one byte, read modulo
// its range.
type asm []byte

// step appends an operation on keys[k] with no expiry, then its choices:
// ints, or slices of them.
func (a asm) step(k, op int, choices ...any) asm {
	a = append(a, byte(k), 1, byte(op))
	for _, c := range choices {
		switch c := c.(type) {
		case int:
			a = append(a, byte(c))
		case []int:
			for _, b := range c {
				a = append(a, byte(b))
			}
		}
	}
	return a
}

// mid is the choices of a value of 5000+n random bytes; num, of a decimal
// counter.
func mid(n int) []int { return []int{1, n >> 8, n & 0xff} }
func num(n int) []int { return []int{0, n} }

// Operation codes of runModel's switch, and choices the assembled programs
// give them.
const (
	opSet, opVirtual, opGet, opIncr, opFlush = 0, 4, 5, 9, 10
	opReserve, opSettle, opAcquire           = 12, 13, 14
	opRelease, opFill                        = 15, 16
	anyCAS, liveCAS                          = 999, 0 // expect(): a miss, or the key's CAS
	doCommit, doAbort                        = 1, 0   // opSettle of the first open reservation
	fillReal, fillVirtual                    = 0, 1   // opFill's kind of item
)

// fullClassProgram fills one class of the small engine to its last page,
// then overwrites, pins, reserves, aborts and flushes in it, stores into a
// class that has no page, and fills the class again over flushed items.
func fullClassProgram() []byte {
	const a, b, c = 0, 1, 2
	v := mid(34000)                               // class 49152: 21 chunks a page
	p := asm{1}.step(a, opFill, 126, v, fillReal) // 127 items: all four pages, then evictions
	for i := 0; i < 4; i++ {
		p = p.step(a, opSet, anyCAS, v) // the first evicts, the rest take a's own chunk
	}
	p = p.step(a, opAcquire).step(a, opSet, anyCAS, v).step(a, opRelease, 0)
	p = p.step(b, opReserve, int(StoreSet), anyCAS, v).step(b, opSettle, 0, doCommit)
	p = p.step(b, opReserve, int(StoreSet), anyCAS, v).step(b, opGet).step(b, opSettle, 0, doCommit)
	p = p.step(b, opReserve, int(StoreCAS), liveCAS, v).step(b, opSettle, 0, doCommit)
	p = p.step(a, opSet, anyCAS, num(5)).step(a, opGet).step(c, opIncr, 150, 0, 7)
	p = p.step(a, opReserve, int(StoreSet), anyCAS, v).step(a, opSettle, 0, doAbort).step(a, opGet)
	p = p.step(a, opSet, anyCAS, v)
	p = p.step(b, opReserve, int(StoreReplace), anyCAS, v).step(b, opFlush, 0).step(b, opSettle, 0, doCommit)
	return p.step(c, opFill, 126, mid(33000), fillVirtual)
}

// allPinnedProgram fills the small engine's four pages, three of them with
// fill items, and pins every chunk of the fourth's class, two of them
// items removed under their pins: stores into the class then fail and
// evict nothing, until the pins go.
func allPinnedProgram() []byte {
	big := []int{60000 >> 8, 60000 & 0xff} // a virtual size of class 98304: 10 chunks a page
	p := asm{1}.step(0, opFill, 125, mid(15000), fillVirtual)
	for k := 0; k < 8; k++ {
		p = p.step(k, opVirtual, big)
	}
	for i := 0; i < 2; i++ {
		p = p.step(0, opAcquire).step(0, opVirtual, big)
	}
	for k := 0; k < 8; k++ {
		p = p.step(k, opAcquire)
	}
	p = p.step(0, opVirtual, big).step(3, opVirtual, big).step(0, opGet)
	for i := 0; i < 10; i++ {
		p = p.step(0, opRelease, 0)
	}
	return p.step(3, opVirtual, big).step(0, opVirtual, big)
}

// withHashPower starts the index of every engine made before tb ends at
// 2^p buckets.
func withHashPower(tb testing.TB, p int) {
	old := hashPowerStart
	hashPowerStart = p
	tb.Cleanup(func() { hashPowerStart = old })
}

// FuzzEngineModel plays arbitrary programs against the engine and the
// model (see runModel). The index starts at one bucket, so a program
// crosses doublings and walks chains of several items.
func FuzzEngineModel(f *testing.F) {
	withHashPower(f, 0)
	for seed := int64(1); seed <= 8; seed++ {
		f.Add([]byte(seedProgram(seed, 2000)))
	}
	f.Add(fullClassProgram())
	f.Add(allPinnedProgram())
	f.Fuzz(func(t *testing.T, p []byte) { runModel(t, p) })
}
