package memcached

import (
	"bytes"
	"errors"
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
}

// modelClass is the model's ledger of one slab class.
type modelClass struct{ pages, free, items, held, freeMem int64 }

// model is a plain-map engine with the slab budget kept as counters. It
// never evicts: the fuzz target's engine has room for everything it stores.
type model struct {
	cfg     Config
	now     *int64
	items   map[string]*modelItem
	casSeq  uint64
	flushAt uint64
	stats   Stats
	slabs   []SlabStats // the class table: ChunkSize only
	classes []modelClass
	pages   int64
}

func newModel(e *Engine, now *int64) *model {
	m := &model{cfg: e.Config(), now: now, items: map[string]*modelItem{}, slabs: e.Slabs()}
	m.classes = make([]modelClass, len(m.slabs))
	m.stats.LimitMaxMB = m.cfg.MemLimit >> 20
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

func (m *model) remove(it *modelItem) {
	delete(m.items, it.key)
	m.classes[it.class].items--
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

func (m *model) take(foot int, real bool) (int, error) {
	ci := 0
	for ci < len(m.slabs) && m.slabs[ci].ChunkSize < foot {
		ci++
	}
	if ci == len(m.slabs) {
		return 0, ErrTooLarge
	}
	c := &m.classes[ci]
	if c.free == 0 {
		page := max(int64(pageSize), int64(m.cfg.MaxItemSize))
		if m.pages == m.cfg.MemLimit/page {
			panic("model: the engine is full, and the model does not evict")
		}
		m.pages++
		c.pages++
		c.free += page / int64(m.slabs[ci].ChunkSize)
	}
	if real && c.freeMem > 0 {
		c.freeMem--
	}
	c.free--
	return ci, nil
}

func (m *model) publish(it *modelItem) uint64 {
	m.casSeq++
	it.cas = m.casSeq
	m.items[it.key] = it
	m.classes[it.class].items++
	m.stats.CurrItems++
	m.stats.TotalItems++
	m.stats.Bytes += m.foot(it)
	return it.cas
}

func (m *model) check(key string, mode StoreMode, expect uint64) (*modelItem, error) {
	old := m.lookup(key)
	switch {
	case mode == StoreAdd && old != nil, mode == StoreReplace && old == nil:
		return nil, ErrNotStored
	case mode == StoreCAS && old == nil:
		m.stats.CasMisses++
		return nil, ErrNotFound
	case mode == StoreCAS && old.cas != expect:
		m.stats.CasBadval++
		return nil, ErrExists
	}
	return old, nil
}

func (m *model) admit(key string, mode StoreMode, expect uint64) error {
	old, err := m.check(key, mode, expect)
	if err != nil {
		return err
	}
	if mode == StoreCAS {
		m.stats.CasHits++
	}
	if old != nil {
		m.remove(old)
	}
	return nil
}

// newItem takes a chunk for it and returns the model item for it, with a
// copy of a real value.
func (m *model) newItem(it Item, real bool) (*modelItem, error) {
	ci, err := m.take(itemFootprint(it.Key, it.Size), real)
	if err != nil {
		return nil, err
	}
	mi := &modelItem{key: it.Key, size: it.Size, flags: it.Flags, exp: it.ExpireAt, class: ci}
	if real {
		mi.value = append(make([]byte, 0, it.Size), it.Value...)[:it.Size]
	}
	return mi, nil
}

func (m *model) store(it Item, mode StoreMode, expect uint64) (uint64, error) {
	m.stats.CmdSet++
	if it.Size < 0 || (it.Value != nil && it.Size != 0 && it.Size != len(it.Value)) {
		return 0, ErrInvalidArg
	}
	if it.Value != nil {
		it.Size = len(it.Value)
	}
	if itemFootprint(it.Key, it.Size) > m.cfg.MaxItemSize {
		return 0, ErrTooLarge
	}
	if err := m.admit(it.Key, mode, expect); err != nil {
		return 0, err
	}
	mi, err := m.newItem(it, it.Value != nil)
	if err != nil {
		return 0, err
	}
	return m.publish(mi), nil
}

func (m *model) get(key string) *modelItem {
	m.stats.CmdGet++
	it := m.lookup(key)
	if it == nil {
		m.stats.GetMisses++
		return nil
	}
	m.stats.GetHits++
	return it
}

func (m *model) incrDecr(key string, delta int64, init *uint64, exp int64) (uint64, error) {
	it := m.lookup(key)
	if it == nil {
		if init == nil {
			return 0, ErrNotFound
		}
		_, err := m.store(Item{Key: key, Value: strconv.AppendUint(nil, *init, 10), ExpireAt: exp}, StoreSet, 0)
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
	_, err = m.store(Item{Key: key, Value: strconv.AppendUint(nil, next, 10), Flags: it.flags, ExpireAt: it.exp}, StoreSet, 0)
	return next, err
}

func (m *model) reserve(it Item, mode StoreMode, expect uint64) (*modelItem, error) {
	m.stats.CmdSet++
	if itemFootprint(it.Key, it.Size) > m.cfg.MaxItemSize {
		return nil, ErrTooLarge
	}
	if _, err := m.check(it.Key, mode, expect); err != nil {
		return nil, err
	}
	mi, err := m.newItem(it, true)
	if err != nil {
		return nil, err
	}
	m.classes[mi.class].held++
	return mi, nil
}

func (m *model) commit(mi *modelItem, mode StoreMode, expect uint64) (uint64, error) {
	m.classes[mi.class].held--
	if err := m.admit(mi.key, mode, expect); err != nil {
		m.giveBack(mi)
		return 0, err
	}
	return m.publish(mi), nil
}

func (m *model) abort(mi *modelItem) {
	m.classes[mi.class].held--
	m.giveBack(mi)
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
// across removal, and expiry on a stepped clock. Every result, the
// counters and the slab ledger must match the model's after every step.
func runModel(t *testing.T, p program) {
	if len(p) > 4096 {
		p = p[:4096]
	}
	now := int64(1)
	e := NewEngine(Config{MemLimit: 256 << 20, Clock: func() int64 { return now }})
	defer e.Close()
	m := newModel(e, &now)
	keys := []string{"a", "b", "c", "d", "e", "f", "g", "h"}
	type pin struct {
		p    Pin
		mi   *modelItem
		want []byte
	}
	type open struct {
		r      Reservation
		mi     *modelItem
		mode   StoreMode
		expect uint64
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
			if mi := m.items[k]; mi != nil && p.next(2) == 0 {
				return mi.cas
			}
			return uint64(p.next(1000))
		}
		switch op := p.next(16); op {
		case 0, 1, 2, 3:
			mode, token := StoreMode(op), expect()
			it := Item{Key: k, Value: value(), Flags: uint32(step), ExpireAt: exp}
			var cas uint64
			var err error
			switch mode {
			case StoreSet:
				cas, err = e.Set(it)
			case StoreAdd:
				cas, err = e.Add(it)
			case StoreReplace:
				cas, err = e.Replace(it)
			case StoreCAS:
				cas, err = e.CompareAndSwap(it, token)
			}
			wcas, werr := m.store(it, mode, token)
			checkModel(t, step, "store", cas, wcas, err, werr)
		case 4:
			it := Item{Key: k, Size: p.size(200_000), Flags: uint32(step), ExpireAt: exp}
			cas, err := e.Set(it)
			wcas, werr := m.store(it, StoreSet, 0)
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
			mi, werr := m.reserve(it, mode, token)
			checkModel(t, step, "reserve", 0, 0, err, werr)
			if err == nil {
				copy(r.Value, v)
				opens = append(opens, open{r, mi, mode, token})
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
				m.abort(o.mi)
				continue
			}
			cas, err := e.Commit(o.r)
			wcas, werr := m.commit(o.mi, o.mode, o.expect)
			checkModel(t, step, "commit", cas, wcas, err, werr)
		case 14:
			if len(pins) == 4 {
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
		}
		compareModel(t, step, e, m)
	}
	for _, pn := range pins {
		e.Release(pn.p)
		m.release(pn.mi)
	}
	for _, o := range opens {
		e.Abort(o.r)
		m.abort(o.mi)
	}
	compareModel(t, -1, e, m)
	if e.Len() != len(m.items) {
		t.Fatalf("Len: engine %d, model %d", e.Len(), len(m.items))
	}
	live := map[string]bool{}
	for k, mi := range m.items {
		live[k] = !m.expired(mi)
	}
	for _, k := range e.Keys() {
		if !live[k] {
			t.Fatalf("Keys lists %s, which the model holds no live item under", k)
		}
		delete(live, k)
	}
	for k, l := range live {
		if l {
			t.Fatalf("Keys misses %s", k)
		}
	}
}

// compareModel compares the counters and every class's ledger.
func compareModel(t *testing.T, step int, e *Engine, m *model) {
	t.Helper()
	if st := e.Stats(); st != m.stats {
		t.Fatalf("step %d stats:\nengine %+v\nmodel  %+v", step, st, m.stats)
	}
	for i, s := range e.Slabs() {
		c := m.classes[i]
		if s.Pages != c.pages || s.Free != c.free || s.Items != c.items || s.Held != c.held || s.FreeMem != c.freeMem {
			t.Fatalf("step %d class %d (%d B): engine %+v, model %+v", step, i, s.ChunkSize, s, c)
		}
	}
}

// seedProgram is a random program of n choices.
func seedProgram(seed int64, n int) program {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// FuzzEngineModel plays arbitrary programs against the engine and the
// model (see runModel).
func FuzzEngineModel(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add([]byte(seedProgram(seed, 2000)))
	}
	f.Fuzz(func(t *testing.T, p []byte) { runModel(t, p) })
}
