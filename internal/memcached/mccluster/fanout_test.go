package mccluster

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"hbb/internal/memcached"
	"hbb/internal/memcached/mcclient"
)

// keyOn returns a key whose replica set (R=2 of 3 servers) includes addr.
func keyOn(t *testing.T, c *Cluster, addr string, tag string) string {
	t.Helper()
	for i := 0; i < 1000; i++ {
		key := fmt.Sprintf("%s-%d", tag, i)
		for _, a := range c.ReplicasFor(key) {
			if a == addr {
				return key
			}
		}
	}
	t.Fatalf("no key found with %s in its replica set", addr)
	return ""
}

// TestClusterFanOutOneReplicaDown: with one of a key's two
// replicas dead, Set and Delete still acknowledge from the survivor, and
// the fan-out runs on the caller's goroutine — 10k SETs leave the goroutine
// count where it was, and it never rises while they run.
func TestClusterFanOutOneReplicaDown(t *testing.T) {
	// No reconnect and a cooldown longer than the test: after the first
	// failure the dead node answers from its sticky error, with no redial
	// goroutine to confuse the count.
	l, c := launch(t, 3, Options{
		Replicas: 2, noFrontCache: true, noReadSpread: true,
		reconnect:      mcclient.ReconnectPolicy{MaxAttempts: -1},
		redialCooldown: time.Hour,
	})
	victim := 1
	key := keyOn(t, c, l.Addrs()[victim], "fan")
	if _, err := c.Set(&mcclient.Item{Key: key, Value: []byte("v0")}); err != nil {
		t.Fatal(err)
	}
	l.Kill(victim)
	// The first operations after the kill consume the connection's failure.
	deadline := time.Now().Add(5 * time.Second)
	for c.Stats().ReplicaErrors == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the kill never surfaced as a replica error")
		}
		if _, err := c.Set(&mcclient.Item{Key: key, Value: []byte("v1")}); err != nil {
			t.Fatalf("set with one replica down: %v", err)
		}
	}
	// The dead connection's reader is the last goroutine to go.
	var base int
	for settled := 0; settled < 20; {
		if n := runtime.NumGoroutine(); n == base {
			settled++
		} else {
			base, settled = n, 0
		}
		if time.Now().After(deadline) {
			t.Fatal("goroutine count never settled after the kill")
		}
		time.Sleep(time.Millisecond)
	}

	const sets = 10_000
	item := &mcclient.Item{Key: key, Value: make([]byte, 16)}
	peak := base
	for i := 0; i < sets; i++ {
		item.Value[0] = byte(i)
		if _, err := c.Set(item); err != nil {
			t.Fatalf("set %d with one replica down: %v", i, err)
		}
		if n := runtime.NumGoroutine(); n > peak {
			peak = n
		}
	}
	if after := runtime.NumGoroutine(); peak > base || after > base {
		t.Errorf("goroutines: %d before, peak %d during, %d after %d SETs — the fan-out spawned", base, peak, after, sets)
	}
	if it, err := c.Get(key); err != nil || it.Value[0] != byte((sets-1)&0xff) {
		t.Fatalf("get from the surviving replica: %v %v", it, err)
	}
	if err := c.Delete(key); err != nil {
		t.Fatalf("delete with one replica down: %v", err)
	}
	if _, err := c.Get(key); !mcclient.IsNotFound(err) {
		t.Fatalf("get after delete: %v, want not-found", err)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("goroutines: %d before, %d after Delete", base, n)
	}
}

// TestClusterFanOutConcurrentValueReuse covers Set's ownership rule under
// -race: callers reuse one buffer for every Set, refilling it the moment
// Set returns, with values large enough to be written in place by whichever
// caller flushes — while a replica dies mid-run, so the error paths return
// buffers too. Any reference the cluster or a connection kept past Set's
// return is a reported race; the read-back checks nothing was torn.
func TestClusterFanOutConcurrentValueReuse(t *testing.T) {
	l, c := launch(t, 3, Options{
		Replicas: 2, noFrontCache: true, noReadSpread: true,
		reconnect:      mcclient.ReconnectPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 2 * time.Millisecond},
		redialCooldown: time.Hour,
	})
	const callers, rounds, size = 6, 60, 24 << 10
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			item := &mcclient.Item{Key: fmt.Sprintf("reuse-%d", g), Value: make([]byte, size)}
			for i := 0; i < rounds; i++ {
				for j := range item.Value {
					item.Value[j] = byte(g*rounds + i)
				}
				if _, err := c.Set(item); err != nil {
					errs <- fmt.Errorf("caller %d round %d: %w", g, i, err)
					return
				}
				if g == 0 && i == rounds/3 {
					l.Kill(2)
				}
			}
			it, err := c.Get(item.Key)
			if err != nil {
				errs <- fmt.Errorf("caller %d read-back: %w", g, err)
				return
			}
			if want := bytes.Repeat([]byte{byte(g*rounds + rounds - 1)}, size); !bytes.Equal(it.Value, want) {
				errs <- fmt.Errorf("caller %d read back a torn or stale value (first byte %d, want %d)", g, it.Value[0], want[0])
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// BenchmarkClusterSet prices one replicated write: R=2 of 3 servers over
// loopback, one caller, so ns/op is two overlapped round-trips and
// allocs/op is what the fan-out itself costs.
func BenchmarkClusterSet(b *testing.B) {
	_, c := launch(b, 3, Options{Replicas: 2, noFrontCache: true, noReadSpread: true})
	keys := make([]string, 1024)
	for i := range keys {
		keys[i] = fmt.Sprintf("set:%04d", i)
	}
	item := &mcclient.Item{Value: make([]byte, 64)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		item.Key = keys[i%len(keys)]
		if _, err := c.Set(item); err != nil {
			b.Fatal(err)
		}
	}
}

// slowProxy forwards connections to backend and holds every chunk of the
// backend's replies for delay before passing it on.
func slowProxy(t *testing.T, backend string, delay time.Duration) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			front, err := ln.Accept()
			if err != nil {
				return
			}
			back, err := net.Dial("tcp", backend)
			if err != nil {
				front.Close()
				return
			}
			t.Cleanup(func() { front.Close(); back.Close() })
			go io.Copy(back, front)
			go func() {
				buf := make([]byte, 64<<10)
				for {
					n, err := back.Read(buf)
					if err != nil {
						front.Close()
						return
					}
					time.Sleep(delay)
					if _, err := front.Write(buf[:n]); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// TestClusterGetMultiFanOut: with every server's replies delayed by d, a
// GetMulti over keys on three servers takes about d, not 3d: each server's
// burst is on the wire before any reply is awaited.
func TestClusterGetMultiFanOut(t *testing.T) {
	const d = 150 * time.Millisecond
	l, err := LaunchLocal(3, memcached.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(l.Close)
	var addrs []string
	for _, a := range l.Addrs() {
		addrs = append(addrs, slowProxy(t, a, d))
	}
	c, err := New(addrs, Options{Replicas: 2, noFrontCache: true, noReadSpread: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	var keys []string
	var items []*mcclient.Item
	primaries := map[string]bool{}
	for i := 0; len(primaries) < 3 || len(keys) < 30; i++ {
		k := fmt.Sprintf("fan-%d", i)
		keys = append(keys, k)
		items = append(items, &mcclient.Item{Key: k, Value: []byte(k)})
		primaries[c.ReplicasFor(k)[0]] = true
	}
	if failed, err := c.SetMulti(items); err != nil || len(failed) != 0 {
		t.Fatalf("SetMulti: %v %v", failed, err)
	}
	start := time.Now()
	got, err := c.GetMulti(keys)
	took := time.Since(start)
	if err != nil || len(got) != len(keys) {
		t.Fatalf("GetMulti: %d of %d keys, %v", len(got), len(keys), err)
	}
	if took >= 2*d {
		t.Errorf("GetMulti over 3 servers took %v with replies delayed %v each: the bursts ran one after another", took, d)
	}
}
