package mcserver

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hbb/internal/memcached"
	"hbb/internal/memcached/mcclient"
)

// startServer spins up a server on a loopback port and returns a connected
// client; both are torn down with the test.
func startServer(t *testing.T, cfg memcached.Config) *mcclient.Client {
	t.Helper()
	srv := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln)
	}()
	t.Cleanup(func() {
		srv.Close()
		<-done
	})
	c, err := mcclient.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestSetGetDeleteOverTCP(t *testing.T) {
	c := startServer(t, memcached.Config{})
	cas, err := c.Set(&mcclient.Item{Key: "greeting", Value: []byte("hello"), Flags: 99})
	if err != nil {
		t.Fatalf("set: %v", err)
	}
	it, err := c.Get("greeting")
	if err != nil {
		t.Fatalf("get: %v", err)
	}
	if string(it.Value) != "hello" || it.Flags != 99 || it.CAS != cas {
		t.Errorf("got %+v", it)
	}
	if err := c.Delete("greeting"); err != nil {
		t.Fatalf("delete: %v", err)
	}
	if _, err := c.Get("greeting"); !mcclient.IsNotFound(err) {
		t.Errorf("get after delete: %v", err)
	}
}

func TestAddReplaceOverTCP(t *testing.T) {
	c := startServer(t, memcached.Config{})
	if _, err := c.Replace(&mcclient.Item{Key: "k", Value: []byte("x")}); !mcclient.IsNotStored(err) {
		t.Errorf("replace missing: %v", err)
	}
	if _, err := c.Add(&mcclient.Item{Key: "k", Value: []byte("x")}); err != nil {
		t.Fatalf("add: %v", err)
	}
	if _, err := c.Add(&mcclient.Item{Key: "k", Value: []byte("y")}); !mcclient.IsNotStored(err) {
		t.Errorf("add existing: %v", err)
	}
}

func TestCASOverTCP(t *testing.T) {
	c := startServer(t, memcached.Config{})
	cas, err := c.Set(&mcclient.Item{Key: "k", Value: []byte("v1")})
	if err != nil {
		t.Fatalf("set: %v", err)
	}
	if _, err := c.CompareAndSwap(&mcclient.Item{Key: "k", Value: []byte("bad")}, cas+1); !mcclient.IsExists(err) {
		t.Errorf("stale CAS: %v", err)
	}
	if _, err := c.CompareAndSwap(&mcclient.Item{Key: "k", Value: []byte("v2")}, cas); err != nil {
		t.Fatalf("good CAS: %v", err)
	}
	it, _ := c.Get("k")
	if string(it.Value) != "v2" {
		t.Errorf("value = %q", it.Value)
	}
}

func TestIncrDecrOverTCP(t *testing.T) {
	c := startServer(t, memcached.Config{})
	v, err := c.Incr("counter", 5, 100, 0)
	if err != nil || v != 100 {
		t.Fatalf("incr with init: %d %v", v, err)
	}
	v, err = c.Incr("counter", 5, 0, 0)
	if err != nil || v != 105 {
		t.Fatalf("incr: %d %v", v, err)
	}
	v, err = c.Decr("counter", 200, 0, 0)
	if err != nil || v != 0 {
		t.Fatalf("decr saturation: %d %v", v, err)
	}
	if _, err := c.Incr("absent", 1, 0, 0xffffffff); !mcclient.IsNotFound(err) {
		t.Errorf("incr absent with no-create expiry: %v", err)
	}
}

func TestTouchAndExpiryOverTCP(t *testing.T) {
	now := int64(0)
	var mu sync.Mutex
	clock := func() int64 { mu.Lock(); defer mu.Unlock(); return now }
	c := startServer(t, memcached.Config{Clock: clock})
	if _, err := c.Set(&mcclient.Item{Key: "k", Value: []byte("v"), Expiry: 10}); err != nil {
		t.Fatalf("set: %v", err)
	}
	mu.Lock()
	now = 5 * int64(time.Second)
	mu.Unlock()
	if err := c.Touch("k", 60); err != nil {
		t.Fatalf("touch: %v", err)
	}
	mu.Lock()
	now = 30 * int64(time.Second)
	mu.Unlock()
	if _, err := c.Get("k"); err != nil {
		t.Errorf("touched key expired early: %v", err)
	}
	mu.Lock()
	now = 100 * int64(time.Second)
	mu.Unlock()
	if _, err := c.Get("k"); !mcclient.IsNotFound(err) {
		t.Errorf("key should have expired: %v", err)
	}
}

func TestFlushVersionNoopStats(t *testing.T) {
	c := startServer(t, memcached.Config{})
	if err := c.Noop(); err != nil {
		t.Fatalf("noop: %v", err)
	}
	v, err := c.Version()
	if err != nil || v != Version {
		t.Fatalf("version: %q %v", v, err)
	}
	c.Set(&mcclient.Item{Key: "a", Value: []byte("1")})
	c.Set(&mcclient.Item{Key: "b", Value: []byte("2")})
	if err := c.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if _, err := c.Get("a"); !mcclient.IsNotFound(err) {
		t.Errorf("item survived flush: %v", err)
	}
	stats, err := c.Stats()
	if err != nil {
		t.Fatalf("stats: %v", err)
	}
	for _, k := range []string{"cmd_get", "cmd_set", "get_hits", "curr_items", "bytes"} {
		if _, ok := stats[k]; !ok {
			t.Errorf("stats missing %q (got %v)", k, stats)
		}
	}
	// The index's size: a new engine's 2^8 chain heads of 4 bytes.
	for k, want := range map[string]string{"cmd_set": "2", "hash_power_level": "8", "hash_bytes": "1024"} {
		if stats[k] != want {
			t.Errorf("%s = %q, want %s", k, stats[k], want)
		}
	}
}

// TestStatsReportExactMemLimit: limit_maxbytes is the engine's MemLimit to
// the byte, also under 1 MiB and off a whole MiB.
func TestStatsReportExactMemLimit(t *testing.T) {
	for _, limit := range []int64{512 << 10, 3<<20 + 1000} {
		c := startServer(t, memcached.Config{MemLimit: limit})
		stats, err := c.Stats()
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		if got, want := stats["limit_maxbytes"], fmt.Sprint(limit); got != want {
			t.Errorf("MemLimit %d: limit_maxbytes = %s, want %s", limit, got, want)
		}
	}
}

func TestConcurrentClients(t *testing.T) {
	srv := New(memcached.Config{MemLimit: 32 << 20})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()
	defer func() { srv.Close(); <-done }()

	const clients = 8
	const opsPerClient = 200
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		ci := ci
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := mcclient.Dial(ln.Addr().String(), time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < opsPerClient; i++ {
				key := fmt.Sprintf("c%d-k%d", ci, i)
				if _, err := c.Set(&mcclient.Item{Key: key, Value: []byte(key)}); err != nil {
					errs <- fmt.Errorf("set %s: %w", key, err)
					return
				}
				it, err := c.Get(key)
				if err != nil || string(it.Value) != key {
					errs <- fmt.Errorf("get %s: %v", key, err)
					return
				}
			}
			errs <- nil
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.Engine().Stats().CurrItems; got != clients*opsPerClient {
		t.Errorf("curr items = %d, want %d", got, clients*opsPerClient)
	}
}

func TestLargeValueRoundTrip(t *testing.T) {
	c := startServer(t, memcached.Config{MemLimit: 64 << 20, MaxItemSize: 8 << 20})
	big := make([]byte, 4<<20)
	for i := range big {
		big[i] = byte(i * 31)
	}
	if _, err := c.Set(&mcclient.Item{Key: "big", Value: big}); err != nil {
		t.Fatalf("set 4MiB: %v", err)
	}
	it, err := c.Get("big")
	if err != nil {
		t.Fatalf("get 4MiB: %v", err)
	}
	if len(it.Value) != len(big) {
		t.Fatalf("length %d, want %d", len(it.Value), len(big))
	}
	for i := range big {
		if it.Value[i] != big[i] {
			t.Fatalf("payload corrupted at byte %d", i)
		}
	}
}

func TestValueTooLargeStatus(t *testing.T) {
	c := startServer(t, memcached.Config{MaxItemSize: 1024})
	_, err := c.Set(&mcclient.Item{Key: "big", Value: make([]byte, 4096)})
	se, ok := err.(*mcclient.StatusError)
	if !ok {
		t.Fatalf("err = %v, want StatusError", err)
	}
	if se.Status.String() != "value too large" {
		t.Errorf("status = %v", se.Status)
	}
}
