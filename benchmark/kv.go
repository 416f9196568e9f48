package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"hbb/internal/memcached"
	"hbb/internal/memcached/mcclient"
	"hbb/internal/memcached/mccluster"
	"hbb/internal/memcached/mcserver"
)

// kvBed is the socket tier under test: mcservers on loopback TCP and one
// mccluster.Cluster over them, which owns the only connections.
type kvBed struct {
	servers []*mcserver.Server
	addrs   []string
	cluster *mccluster.Cluster
	serving sync.WaitGroup
}

// startServer listens on addr and serves a fresh engine there. The
// addresses are fixed so that the ring places keys the same way in every
// run; if one cannot be bound the run fails rather than move to another.
func (b *kvBed) startServer(addr string, memLimit int64) (*mcserver.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", fmt.Errorf("bind memcached server: %w", err)
	}
	srv := mcserver.New(memcached.Config{MemLimit: memLimit})
	b.serving.Add(1)
	go func() {
		defer b.serving.Done()
		// Serve returns nil once Close is called; any other return leaves
		// the server deaf, which the callers see as failed operations.
		_ = srv.Serve(ln)
	}()
	return srv, ln.Addr().String(), nil
}

func startKV(addrs []string, memLimit int64) (*kvBed, error) {
	b := &kvBed{}
	for _, a := range addrs {
		srv, bound, err := b.startServer(a, memLimit)
		if err != nil {
			b.close()
			return nil, err
		}
		b.servers = append(b.servers, srv)
		b.addrs = append(b.addrs, bound)
	}
	var err error
	if b.cluster, err = mccluster.New(b.addrs, mccluster.Options{Replicas: 2}); err != nil {
		b.close()
		return nil, err
	}
	return b, nil
}

func (b *kvBed) close() {
	if b.cluster != nil {
		b.cluster.Close()
	}
	for _, s := range b.servers {
		s.Close()
	}
	b.serving.Wait()
}

// kvTotals are the tier's counters at one moment; metrics are differences.
type kvTotals struct {
	cluster   mccluster.Stats
	cmdGet    []int64 // per server
	cmdSet    []int64
	getHits   int64
	evictions int64
	conns     int64
}

func (b *kvBed) totals() kvTotals {
	t := kvTotals{cluster: b.cluster.Stats()}
	for _, s := range b.servers {
		st := s.Engine().Stats()
		t.cmdGet = append(t.cmdGet, st.CmdGet)
		t.cmdSet = append(t.cmdSet, st.CmdSet)
		t.getHits += st.GetHits
		t.evictions += st.Evictions
		t.conns += s.ConnsAccepted()
	}
	return t
}

func frac(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// reportTier fills the server.* and cluster.* metrics from what the tier
// counted between base and now.
func (b *kvBed) reportTier(base kvTotals, m map[string]float64) {
	now := b.totals()
	c, c0 := now.cluster, base.cluster
	gets, sets := c.Gets-c0.Gets, c.Sets-c0.Sets
	var srvGets, srvSets, busiest int64
	for i := range now.cmdGet {
		g, s := now.cmdGet[i]-base.cmdGet[i], now.cmdSet[i]-base.cmdSet[i]
		srvGets += g
		srvSets += s
		busiest = max(busiest, g+s)
	}
	m["server.gets_per_user_get"] = frac(srvGets, gets)
	m["server.sets_per_user_set"] = frac(srvSets, sets)
	m["server.get_hit_frac"] = frac(now.getHits-base.getHits, srvGets)
	m["server.evictions"] = float64(now.evictions - base.evictions)
	m["server.load_imbalance"] = frac(busiest*int64(len(now.cmdGet)), srvGets+srvSets)
	m["server.conns_accepted"] = float64(now.conns)
	m["cluster.fc_hit_frac"] = frac(c.FrontCacheHits-c0.FrontCacheHits, gets)
	m["cluster.fc_hit_per_lookup"] = frac(c.FrontCacheHits-c0.FrontCacheHits, c.FrontCacheLookups-c0.FrontCacheLookups)
	m["cluster.fc_evictions"] = float64(c.FrontCacheEvictions - c0.FrontCacheEvictions)
	m["cluster.fc_invalidations"] = float64(c.FrontCacheInvalidations - c0.FrontCacheInvalidations)
	m["cluster.hot_get_frac"] = frac(c.HotGets-c0.HotGets, gets)
	m["cluster.spread_read_frac"] = frac(c.SpreadReads-c0.SpreadReads, gets)
	m["cluster.failovers"] = float64(c.Failovers - c0.Failovers)
	m["cluster.repairs"] = float64(c.Repairs - c0.Repairs)
	m["cluster.replica_errors"] = float64(c.ReplicaErrors - c0.ReplicaErrors)
	m["cluster.shed_frac"] = frac(c.ShedGets+c.ShedSets-c0.ShedGets-c0.ShedSets, gets+sets)
}

// kvOps is kv_zipf_read and kv_uniform_mixed: closed-loop callers running
// pre-generated GET/SET streams over preloaded keys, a window at a time.
type kvOps struct {
	sz        *sizes
	bed       *kvBed
	keys      []string
	version   []uint32 // per key; a key has one writer, so no two callers share an element
	callers   []*kvCaller
	windowOps int
	opsPerS   []float64
	base      kvTotals
}

// tally counts a caller's operations and keeps the first that failed.
type tally struct {
	ops, failed int64
	err         error
}

func (t *tally) fail(err error) {
	t.failed++
	if t.err == nil {
		t.err = err
	}
}

func (t *tally) add(o tally) {
	t.ops += o.ops
	t.failed += o.failed
	if t.err == nil {
		t.err = o.err
	}
}

// check is the end of a key-value workload's finish: any failed operation
// fails the run, and the first one says why.
func (t tally) check(checks []string) (int64, int64, []string, error) {
	if t.failed > 0 {
		return t.ops, t.failed, checks, fmt.Errorf("%d of %d operations failed, first: %w", t.failed, t.ops, t.err)
	}
	return t.ops, 0, checks, nil
}

type kvCaller struct {
	tally
	w        *kvOps
	stream   []uint32 // key index, with setBit on a SET
	pos      int
	get, set hist
	item     mcclient.Item // reused by every SET; Cluster.Set is done with it when it returns
	written  []uint32      // keys SET in the current window
}

const setBit = 1 << 31

// keyOfRank maps a popularity rank to a key index by a fixed bijection
// (an odd multiplier modulo a power of two), so the hot keys sit on the
// same servers whatever the seed.
func keyOfRank(rank uint64, keys int) uint32 {
	return uint32((rank*0x9E3779B1 + 0x7F4A7C15) & uint64(keys-1))
}

func setupKVZipf(sz *sizes, seed int64) (instance, error) {
	return setupKVOps(sz, seed, sz.zipfCallers, sz.zipfWindowOps, sz.zipfWarmOps, 0.05, true)
}

func setupKVUniform(sz *sizes, seed int64) (instance, error) {
	return setupKVOps(sz, seed, sz.unifCallers, sz.unifWindowOps, sz.unifWarmOps, 0.50, false)
}

func setupKVOps(sz *sizes, seed int64, callers, windowOps, warmOps int, setFrac float64, zipf bool) (instance, error) {
	if sz.kvKeys&(sz.kvKeys-1) != 0 || sz.kvKeys%callers != 0 || sz.kvValueBytes < 9 {
		return nil, fmt.Errorf("kv sizes: %d keys must be a power of two and a multiple of %d callers, values at least 9 bytes", sz.kvKeys, callers)
	}
	w := &kvOps{sz: sz, windowOps: windowOps, version: make([]uint32, sz.kvKeys)}
	w.keys = make([]string, sz.kvKeys)
	for i := range w.keys {
		w.keys[i] = fmt.Sprintf("key:%07d", i)
	}
	for id := 0; id < callers; id++ {
		rng := rand.New(rand.NewSource(seed<<8 + int64(id)))
		var z *rand.Zipf
		if zipf {
			z = rand.NewZipf(rng, 1.1, 1, uint64(sz.kvKeys-1))
		}
		c := &kvCaller{w: w, stream: make([]uint32, sz.kvStreamOps)}
		c.item.Value = make([]byte, sz.kvValueBytes)
		for i := range c.stream {
			var idx uint32
			if zipf {
				idx = keyOfRank(z.Uint64(), sz.kvKeys)
			} else {
				idx = uint32(rng.Intn(sz.kvKeys))
			}
			if rng.Float64() < setFrac {
				// A SET goes to the caller's own share of the keys, so
				// that every key has one writer and a last version.
				idx = idx - idx%uint32(callers) + uint32(id)
				idx |= setBit
			}
			c.stream[i] = idx
		}
		w.callers = append(w.callers, c)
	}

	var err error
	if w.bed, err = startKV(sz.kvAddrs, sz.kvMemLimit); err != nil {
		return nil, err
	}
	if err := preload(w.bed.cluster.SetMulti, w.keys, sz.kvValueBytes); err != nil {
		w.bed.close()
		return nil, err
	}
	for done := 0; done < warmOps; done += windowOps {
		if _, _, err := w.unit(nil, -1); err != nil {
			w.bed.close()
			return nil, err
		}
	}
	if t := w.total(); t.failed > 0 {
		w.bed.close()
		return nil, fmt.Errorf("warm-up: %d operations failed, first: %w", t.failed, t.err)
	}
	for _, c := range w.callers {
		c.get, c.set, c.ops = hist{}, hist{}, 0
	}
	w.opsPerS = nil
	w.base = w.bed.totals()
	return w, nil
}

// fillValue writes the value of key idx at version ver: both numbers, then
// a byte derived from the key up to the end.
func fillValue(v []byte, idx, ver uint32) {
	binary.LittleEndian.PutUint32(v[0:], idx)
	binary.LittleEndian.PutUint32(v[4:], ver)
	for i := 8; i < len(v); i++ {
		v[i] = byte(idx*31 + 7)
	}
}

// checkValue reports whether v is a value of key idx, and its version.
func checkValue(v []byte, idx uint32, size int) (ver uint32, ok bool) {
	if len(v) != size || binary.LittleEndian.Uint32(v[0:]) != idx || v[len(v)-1] != byte(idx*31+7) {
		return 0, false
	}
	return binary.LittleEndian.Uint32(v[4:]), true
}

// preload stores version 0 of every key through setMulti, in batches.
func preload(setMulti func([]*mcclient.Item) (map[string]error, error), keys []string, valueBytes int) error {
	const batch = 1024
	items := make([]*mcclient.Item, batch)
	vals := make([]byte, batch*valueBytes)
	for i := range items {
		items[i] = &mcclient.Item{Value: vals[i*valueBytes : (i+1)*valueBytes]}
	}
	for at := 0; at < len(keys); at += batch {
		n := min(batch, len(keys)-at)
		for i := 0; i < n; i++ {
			items[i].Key = keys[at+i]
			fillValue(items[i].Value, uint32(at+i), 0)
		}
		failed, err := setMulti(items[:n])
		if err != nil {
			return fmt.Errorf("preload: %w", err)
		}
		if len(failed) > 0 {
			return fmt.Errorf("preload: %d of %d keys not stored", len(failed), n)
		}
	}
	return nil
}

// run executes the caller's next n ops. A latency runs from the end of the
// previous op to the end of this one, so the loop reads the clock once per
// op and holds nothing but the call into the cluster.
func (c *kvCaller) run(n int, tr *tracer, parent int32) {
	w, cl := c.w, c.w.bed.cluster
	last := time.Now()
	for i := 0; i < n; i++ {
		op := c.stream[c.pos]
		if c.pos++; c.pos == len(c.stream) {
			c.pos = 0
		}
		idx := op &^ setBit
		h := &c.get
		if op&setBit != 0 {
			h = &c.set
			ver := w.version[idx] + 1
			fillValue(c.item.Value, idx, ver)
			c.item.Key = w.keys[idx]
			id := tr.begin("cluster.set", parent)
			_, err := cl.Set(&c.item)
			tr.end(id)
			if err != nil {
				c.fail(fmt.Errorf("set %s: %w", c.item.Key, err))
			} else {
				w.version[idx] = ver
				c.written = append(c.written, idx)
			}
		} else {
			id := tr.begin("cluster.get", parent)
			it, err := cl.Get(w.keys[idx])
			tr.end(id)
			if err != nil {
				c.fail(fmt.Errorf("get %s: %w", w.keys[idx], err))
			} else if _, ok := checkValue(it.Value, idx, w.sz.kvValueBytes); !ok {
				c.fail(fmt.Errorf("get %s: wrong value (%d bytes)", w.keys[idx], len(it.Value)))
			}
		}
		now := time.Now()
		h.record(int64(now.Sub(last)))
		last = now
	}
	c.ops += int64(n)
}

// unit is one window: every caller runs its share of windowOps at once.
func (w *kvOps) unit(tr *tracer, parent int32) (int64, time.Duration, error) {
	per := w.windowOps / len(w.callers)
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range w.callers {
		c.written = c.written[:0]
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.run(per, tr, parent)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	ops := int64(per * len(w.callers))
	w.opsPerS = append(w.opsPerS, float64(ops)/wall.Seconds())
	return ops, wall, nil
}

func (w *kvOps) total() tally {
	var t tally
	for _, c := range w.callers {
		t.add(c.tally)
	}
	return t
}

func (w *kvOps) report(m map[string]float64, _ map[string]string) {
	var get, set hist
	for _, c := range w.callers {
		get.merge(&c.get)
		set.merge(&c.set)
	}
	m["get_p50_us"] = get.quantile(0.50) / 1e3
	m["set_p50_us"] = set.quantile(0.50) / 1e3
	m["get_p99_us"] = get.quantile(0.99) / 1e3
	m["set_p99_us"] = set.quantile(0.99) / 1e3
	m["lat.get_p999_us"] = get.quantile(0.999) / 1e3
	m["lat.set_p999_us"] = set.quantile(0.999) / 1e3
	m["lat.window_spread"] = spread(w.opsPerS)
	t := w.total()
	m["fail_frac"] = frac(t.failed, t.ops)
	w.bed.reportTier(w.base, m)
}

// finish waits out the front cache and reads back every key written in the
// last window: each must be at the last version its one writer stored.
func (w *kvOps) finish() (int64, int64, []string, error) {
	time.Sleep(w.sz.frontCacheWait)
	read := 0
	for _, c := range w.callers {
		for _, idx := range c.written {
			it, err := w.bed.cluster.Get(w.keys[idx])
			c.ops++
			read++
			if err != nil {
				c.fail(fmt.Errorf("read back %s: %w", w.keys[idx], err))
			} else if ver, ok := checkValue(it.Value, idx, w.sz.kvValueBytes); !ok || ver != w.version[idx] {
				c.fail(fmt.Errorf("read back %s: version %d (valid %v), last stored %d", w.keys[idx], ver, ok, w.version[idx]))
			}
		}
	}
	return w.total().check([]string{
		"every GET returned the key's own value at the stored length",
		fmt.Sprintf("%d keys written in the last window read back at their last version", read),
	})
}

// layers replays the head of caller 0's stream against each layer alone.
func (w *kvOps) layers(tr *tracer, m map[string]float64) error {
	c := w.callers[0]
	root := tr.begin("layers", -1)
	defer tr.end(root)
	rp := replay{
		sz: w.sz, tr: tr, root: root, m: m, addrs: w.bed.addrs,
		keys: w.keys, memLimit: w.sz.kvMemLimit, value: make([]byte, w.sz.kvValueBytes),
	}
	for _, op := range c.stream[:min(w.sz.replayOps, len(c.stream))] {
		rp.ops = append(rp.ops, replayOp{key: w.keys[op&^setBit], set: op&setBit != 0})
	}
	fillValue(rp.value, 0, 0)
	rp.inMemory()

	n := min(w.sz.replaySockOps, len(rp.ops))
	err := rp.oneClient(func(cl *mcclient.Client) error {
		if err := preload(cl.SetMulti, w.keys, w.sz.kvValueBytes); err != nil {
			return err
		}
		return rp.timed("layer.client", n, func() error {
			for _, op := range rp.ops[:n] {
				var err error
				if op.set {
					_, err = cl.Set(&mcclient.Item{Key: op.key, Value: rp.value})
				} else {
					_, err = cl.Get(op.key)
				}
				if err != nil {
					return fmt.Errorf("client replay %s: %w", op.key, err)
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	c.pos = 0
	failedBefore := c.failed
	if err := rp.timed("layer.cluster", n, func() error {
		c.run(n, nil, -1)
		return nil
	}); err != nil {
		return err
	}
	if c.failed != failedBefore {
		return fmt.Errorf("cluster replay: %w", c.err)
	}
	rp.derive()
	return nil
}

func (w *kvOps) close() { w.bed.close() }
