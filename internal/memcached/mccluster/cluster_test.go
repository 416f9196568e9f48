package mccluster

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"hbb/internal/memcached"
	"hbb/internal/memcached/mcclient"
)

// launch starts n in-process servers and a cluster client over them.
func launch(t testing.TB, n int, opts Options) (*Local, *Cluster) {
	t.Helper()
	l, err := LaunchLocal(n, memcached.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	c, err := New(l.Addrs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return l, c
}

// serverHas reports whether server i holds key (engine-level check).
func serverHas(l *Local, i int, key string) bool {
	srv := l.Server(i)
	if srv == nil {
		return false
	}
	_, err := srv.Engine().Get(key)
	return err == nil
}

func addrIndex(l *Local, addr string) int {
	for i, a := range l.Addrs() {
		if a == addr {
			return i
		}
	}
	return -1
}

// TestClusterPlacementAndReplication: every set lands on exactly the R
// servers the ring names, and a get through the cluster returns it.
func TestClusterPlacementAndReplication(t *testing.T) {
	l, c := launch(t, 3, Options{Replicas: 2, NoFrontCache: true, NoReadSpread: true})
	for i := 0; i < 50; i++ {
		key := fmt.Sprintf("key-%d", i)
		if _, err := c.Set(&mcclient.Item{Key: key, Value: []byte(key)}); err != nil {
			t.Fatal(err)
		}
		reps := c.ReplicasFor(key)
		if len(reps) != 2 || reps[0] == reps[1] {
			t.Fatalf("replica set for %s: %v", key, reps)
		}
		onReplica := map[int]bool{}
		for _, addr := range reps {
			onReplica[addrIndex(l, addr)] = true
		}
		for s := 0; s < 3; s++ {
			if serverHas(l, s, key) != onReplica[s] {
				t.Fatalf("key %s on server %d = %v, want %v (replicas %v)",
					key, s, serverHas(l, s, key), onReplica[s], reps)
			}
		}
		it, err := c.Get(key)
		if err != nil || string(it.Value) != key {
			t.Fatalf("get %s: %v %v", key, it, err)
		}
	}
	if st := c.Stats(); st.Sets != 50 || st.Gets != 50 {
		t.Fatalf("stats: %+v", st)
	}
}

// TestClusterGetMissIsNotFound: a key nobody stored is a typed miss.
func TestClusterGetMissIsNotFound(t *testing.T) {
	_, c := launch(t, 3, Options{})
	if _, err := c.Get("absent"); !mcclient.IsNotFound(err) {
		t.Fatalf("miss error = %v, want not-found", err)
	}
}

// TestClusterFrontCacheHotPath: a key requested past HotMinHits is served
// from the front cache (server-side GET counters stop moving), and a set
// through the client invalidates it immediately.
func TestClusterFrontCacheHotPath(t *testing.T) {
	l, c := launch(t, 3, Options{
		Replicas: 2, HotMinHits: 4, FrontCacheTTL: time.Hour, NoReadSpread: true,
	})
	key := "hotkey"
	if _, err := c.Set(&mcclient.Item{Key: key, Value: []byte("v1")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if it, err := c.Get(key); err != nil || string(it.Value) != "v1" {
			t.Fatalf("get %d: %v %v", i, it, err)
		}
	}
	st := c.Stats()
	if st.FrontCacheHits == 0 {
		t.Fatalf("no front-cache hits after 20 hot gets: %+v", st)
	}
	serverGets := func() int64 {
		var n int64
		for i := 0; i < 3; i++ {
			if srv := l.Server(i); srv != nil {
				n += srv.Engine().Stats().CmdGet
			}
		}
		return n
	}
	before := serverGets()
	for i := 0; i < 50; i++ {
		if _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	if after := serverGets(); after != before {
		t.Fatalf("cached gets still reached servers: %d -> %d", before, after)
	}
	// Invalidate-on-set: the very next get must see the new value.
	if _, err := c.Set(&mcclient.Item{Key: key, Value: []byte("v2")}); err != nil {
		t.Fatal(err)
	}
	if it, err := c.Get(key); err != nil || string(it.Value) != "v2" {
		t.Fatalf("stale read after set: %v %v", it, err)
	}
}

// TestClusterDistinctKeysStayCold: 100,000 keys read once each, past the
// length at which the sketch's over-estimate reaches HotMinHits, flag no
// key hot and leave the front cache empty.
func TestClusterDistinctKeysStayCold(t *testing.T) {
	_, c := launch(t, 3, Options{Replicas: 2})
	const total, batch = 100_000, 1000
	items := make([]*mcclient.Item, batch)
	keys := make([]string, batch)
	for i := range items {
		items[i] = &mcclient.Item{Value: []byte("v")}
	}
	for base := 0; base < total; base += batch {
		for i := range keys {
			keys[i] = fmt.Sprintf("cold-%d", base+i)
			items[i].Key = keys[i]
		}
		if failed, err := c.SetMulti(items); err != nil || len(failed) != 0 {
			t.Fatalf("setmulti: %v %v", failed, err)
		}
		got, err := c.GetMulti(keys)
		if err != nil || len(got) != batch {
			t.Fatalf("getmulti: %d of %d, %v", len(got), batch, err)
		}
	}
	st := c.Stats()
	if st.Gets != total || st.HotGets != 0 || st.FrontCacheEntries != 0 || st.FrontCacheEvictions != 0 {
		t.Errorf("after %d distinct GETs: %d hot, %d front-cache entries, %d evictions",
			st.Gets, st.HotGets, st.FrontCacheEntries, st.FrontCacheEvictions)
	}
}

// TestClusterReadSpreadingFansHotReads: with the front cache off and
// spreading on, a hot key's gets hit both of its replicas.
func TestClusterReadSpreadingFansHotReads(t *testing.T) {
	l, c := launch(t, 3, Options{
		Replicas: 2, NoFrontCache: true, HotMinHits: 4, HotTrack: 64,
	})
	key := "hotkey"
	if _, err := c.Set(&mcclient.Item{Key: key, Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.SpreadReads == 0 {
		t.Fatalf("no spread reads recorded: %+v", st)
	}
	var perReplica []int64
	for _, addr := range c.ReplicasFor(key) {
		perReplica = append(perReplica, l.Server(addrIndex(l, addr)).Engine().Stats().GetHits)
	}
	for i, n := range perReplica {
		// Round-robin splits ~100/100; anything >25 proves real spreading.
		if n < 25 {
			t.Fatalf("replica %d served only %d of 200 hot gets: %v", i, n, perReplica)
		}
	}
}

// TestClusterFailoverGet: with one of the key's two replicas killed, gets
// keep succeeding via the survivor and count a failover.
func TestClusterFailoverGet(t *testing.T) {
	l, c := launch(t, 3, Options{
		Replicas: 2, NoFrontCache: true, NoReadSpread: true,
		Reconnect:      mcclient.ReconnectPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond},
		RedialCooldown: 50 * time.Millisecond,
	})
	key := "failover-key"
	if _, err := c.Set(&mcclient.Item{Key: key, Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	primary := addrIndex(l, c.ReplicasFor(key)[0])
	l.Kill(primary)
	deadline := time.Now().Add(5 * time.Second)
	for {
		it, err := c.Get(key)
		if err == nil {
			if string(it.Value) != "v" {
				t.Fatalf("failover get wrong value: %q", it.Value)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("failover get never succeeded: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := c.Stats(); st.Failovers == 0 {
		t.Fatalf("failover not counted: %+v", st)
	}
}

// TestClusterReadRepair: a replica that lost a key (engine-level delete
// simulates a restarted process) is repaired in the background by the
// next read that fails over past it.
func TestClusterReadRepair(t *testing.T) {
	l, c := launch(t, 3, Options{Replicas: 2, NoFrontCache: true, NoReadSpread: true})
	key := "repair-me"
	if _, err := c.Set(&mcclient.Item{Key: key, Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	primary := addrIndex(l, c.ReplicasFor(key)[0])
	if err := l.Server(primary).Engine().Delete(key); err != nil {
		t.Fatal(err)
	}
	it, err := c.Get(key)
	if err != nil || string(it.Value) != "v" {
		t.Fatalf("get with stale primary: %v %v", it, err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !serverHas(l, primary, key) {
		if time.Now().After(deadline) {
			t.Fatal("read repair never restored the primary")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := c.Stats(); st.Repairs == 0 {
		t.Fatalf("repair not counted: %+v", st)
	}
}

// TestClusterAdmissionShedsGetsBeforeSets pins the shed ordering: at the
// GET bound reads bounce with ErrOverload while writes still flow; at
// twice the bound writes shed too.
func TestClusterAdmissionShedsGetsBeforeSets(t *testing.T) {
	_, c := launch(t, 3, Options{Replicas: 2, MaxInflight: 10, NoFrontCache: true, NoReadSpread: true})
	c.inflight.Store(10)
	if _, err := c.Get("k"); !errors.Is(err, ErrOverload) {
		t.Fatalf("get at the bound: %v, want ErrOverload", err)
	}
	if _, err := c.Set(&mcclient.Item{Key: "k", Value: []byte("v")}); err != nil {
		t.Fatalf("set at the GET bound should pass: %v", err)
	}
	c.inflight.Store(20)
	if _, err := c.Set(&mcclient.Item{Key: "k2", Value: []byte("v")}); !errors.Is(err, ErrOverload) {
		t.Fatalf("set at 2x bound: %v, want ErrOverload", err)
	}
	c.inflight.Store(0)
	st := c.Stats()
	if st.ShedGets != 1 || st.ShedSets != 1 {
		t.Fatalf("shed counters: %+v", st)
	}
	if st.ShedRate() == 0 {
		t.Fatal("ShedRate = 0")
	}
	// Back under the bound, traffic flows again.
	if _, err := c.Get("k"); !mcclient.IsNotFound(err) && err != nil {
		t.Fatalf("get after load drained: %v", err)
	}
}

// TestClusterMultiOps: SetMulti replicates every key R ways and GetMulti
// returns the full set, failing over per server.
func TestClusterMultiOps(t *testing.T) {
	l, c := launch(t, 4, Options{Replicas: 2, NoFrontCache: true, NoReadSpread: true})
	var items []*mcclient.Item
	var keys []string
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("multi-%d", i)
		keys = append(keys, k)
		items = append(items, &mcclient.Item{Key: k, Value: []byte(k)})
	}
	failed, err := c.SetMulti(items)
	if err != nil || len(failed) != 0 {
		t.Fatalf("SetMulti: %v %v", failed, err)
	}
	for _, k := range keys {
		copies := 0
		for s := 0; s < 4; s++ {
			if serverHas(l, s, k) {
				copies++
			}
		}
		if copies != 2 {
			t.Fatalf("key %s has %d copies, want 2", k, copies)
		}
	}
	got, err := c.GetMulti(keys)
	if err != nil || len(got) != len(keys) {
		t.Fatalf("GetMulti: %d items, err %v", len(got), err)
	}
	// Kill one server: every key still has a live replica, so a GetMulti
	// retrieves the full set via failover rounds.
	l.Kill(1)
	got, err = c.GetMulti(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("GetMulti after kill: %d of %d keys", len(got), len(keys))
	}
}

// TestClusterDelete removes all copies and invalidates the cache.
func TestClusterDelete(t *testing.T) {
	l, c := launch(t, 3, Options{Replicas: 2, HotMinHits: 2, FrontCacheTTL: time.Hour})
	key := "del-key"
	if _, err := c.Set(&mcclient.Item{Key: key, Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ { // make it hot and cached
		if _, err := c.Get(key); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Delete(key); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 3; s++ {
		if serverHas(l, s, key) {
			t.Fatalf("server %d still holds deleted key", s)
		}
	}
	if _, err := c.Get(key); !mcclient.IsNotFound(err) {
		t.Fatalf("get after delete: %v, want not-found (not a cached hit)", err)
	}
	if err := c.Delete(key); !mcclient.IsNotFound(err) {
		t.Fatalf("double delete: %v, want not-found", err)
	}
}

// TestClusterOptionValidation pins fail-fast construction errors.
func TestClusterOptionValidation(t *testing.T) {
	if _, err := New(nil, Options{}); err == nil {
		t.Error("no addresses accepted")
	}
	if _, err := New([]string{"a:1", "a:1"}, Options{}); err == nil {
		t.Error("duplicate addresses accepted")
	}
	if _, err := New([]string{"a:1"}, Options{Replicas: -1}); err == nil {
		t.Error("negative replicas accepted")
	}
	if _, err := New([]string{"a:1"}, Options{MaxInflight: -1}); err == nil {
		t.Error("negative MaxInflight accepted")
	}
	c, err := New([]string{"a:1", "b:2"}, Options{Replicas: 5})
	if err != nil {
		t.Fatal(err)
	}
	if c.Replicas() != 2 {
		t.Errorf("Replicas = %d, want clamped 2", c.Replicas())
	}
}
