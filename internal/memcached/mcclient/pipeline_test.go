package mcclient

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hbb/internal/memcached"
	"hbb/internal/memcached/mcserver"
)

// startServer runs a real mcserver and returns a connected client.
func startServer(t testing.TB, opts ...Option) *Client {
	t.Helper()
	srv := mcserver.New(memcached.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close(); <-done })
	c, err := Dial(ln.Addr().String(), time.Second, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestGetMulti(t *testing.T) {
	c := startServer(t)
	for i := 0; i < 10; i += 2 { // even keys present, odd absent
		if _, err := c.Set(&Item{Key: fmt.Sprintf("k%d", i), Value: []byte(fmt.Sprintf("v%d", i)), Flags: uint32(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var keys []string
	for i := 0; i < 10; i++ {
		keys = append(keys, fmt.Sprintf("k%d", i))
	}
	items, err := c.GetMulti(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 5 {
		t.Fatalf("got %d items, want 5: %v", len(items), items)
	}
	for i := 0; i < 10; i += 2 {
		it, ok := items[fmt.Sprintf("k%d", i)]
		if !ok {
			t.Fatalf("k%d missing from result", i)
		}
		if string(it.Value) != fmt.Sprintf("v%d", i) || it.Flags != uint32(i) || it.CAS == 0 {
			t.Errorf("k%d = %+v", i, it)
		}
		if _, odd := items[fmt.Sprintf("k%d", i+1)]; odd {
			t.Errorf("absent key k%d present in result", i+1)
		}
	}
	if empty, err := c.GetMulti(nil); err != nil || len(empty) != 0 {
		t.Errorf("GetMulti(nil) = %v, %v", empty, err)
	}
}

func TestSetMulti(t *testing.T) {
	c := startServer(t)
	var items []*Item
	for i := 0; i < 20; i++ {
		items = append(items, &Item{Key: fmt.Sprintf("m%d", i), Value: []byte(fmt.Sprintf("val%d", i))})
	}
	failed, err := c.SetMulti(items)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("failed = %v", failed)
	}
	got, err := c.GetMulti([]string{"m0", "m7", "m19"})
	if err != nil || len(got) != 3 || string(got["m7"].Value) != "val7" {
		t.Fatalf("readback: %v %v", got, err)
	}
	// A stale CAS inside the batch must surface as that key's error only.
	bad := []*Item{
		{Key: "m0", Value: []byte("new0"), CAS: got["m0"].CAS},     // good cas
		{Key: "m7", Value: []byte("new7"), CAS: got["m7"].CAS + 1}, // stale
	}
	failed, err = c.SetMulti(bad)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 1 || !IsExists(failed["m7"]) {
		t.Fatalf("failed = %v", failed)
	}
	if it, _ := c.Get("m0"); string(it.Value) != "new0" {
		t.Errorf("m0 = %q", it.Value)
	}
	if it, _ := c.Get("m7"); string(it.Value) != "val7" {
		t.Errorf("m7 overwritten despite stale cas: %q", it.Value)
	}
}

// TestPipelinedConcurrentCallers drives many goroutines through one client;
// with the per-op lock gone, all of them keep requests in flight at once.
// Run under -race this also checks the reader/writer handoff.
func TestPipelinedConcurrentCallers(t *testing.T) {
	c := startServer(t)
	const workers = 16
	ops := 200
	if testing.Short() {
		ops = 40
	}
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("w%d-%d", w, i%13)
				if _, err := c.Set(&Item{Key: key, Value: []byte(key)}); err != nil {
					errs <- fmt.Errorf("set: %w", err)
					return
				}
				it, err := c.Get(key)
				if err != nil {
					errs <- fmt.Errorf("get: %w", err)
					return
				}
				if string(it.Value) != key {
					errs <- fmt.Errorf("get %s returned %q: response routed to wrong caller", key, it.Value)
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
}

// TestWindowLimitsInFlight verifies a tiny window still completes a burst
// larger than the window (slots recycle as responses drain).
func TestWindowLimitsInFlight(t *testing.T) {
	c := startServer(t)
	c.window = make(chan struct{}, 2)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Set(&Item{Key: fmt.Sprintf("wk%d", i), Value: []byte("v")})
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	items, err := c.GetMulti([]string{"wk0", "wk15", "wk31"})
	if err != nil || len(items) != 3 {
		t.Fatalf("readback: %v %v", items, err)
	}
}

// TestClosedClientFailsFast checks the sticky error: after Close, calls
// fail immediately instead of hanging on a dead connection.
func TestClosedClientFailsFast(t *testing.T) {
	c := startServer(t)
	if err := c.Noop(); err != nil {
		t.Fatal(err)
	}
	c.Close()
	done := make(chan error, 1)
	go func() { done <- c.Noop() }()
	select {
	case err := <-done:
		if err == nil {
			t.Error("noop on closed client succeeded")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("call on closed client hung")
	}
	if _, err := c.GetMulti([]string{"a"}); err == nil {
		t.Error("GetMulti on closed client succeeded")
	}
}

// BenchmarkClientSequential is the old behavior: one op at a time, each
// paying a full round-trip of latency.
func BenchmarkClientSequential(b *testing.B) {
	c := startServer(b)
	if _, err := c.Set(&Item{Key: "bench", Value: []byte("value")}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Get("bench"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClientPipelined overlaps round-trips from parallel callers on
// one connection — the win the reader-goroutine design buys.
func BenchmarkClientPipelined(b *testing.B) {
	c := startServer(b)
	if _, err := c.Set(&Item{Key: "bench", Value: []byte("value")}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := c.Get("bench"); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkGetMulti measures the quiet-op batch path, amortizing one
// round-trip over the whole key set.
func BenchmarkGetMulti(b *testing.B) {
	c := startServer(b)
	keys := make([]string, 64)
	items := make([]*Item, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("batch%d", i)
		items[i] = &Item{Key: keys[i], Value: []byte("value")}
	}
	if _, err := c.SetMulti(items); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		got, err := c.GetMulti(keys)
		if err != nil {
			b.Fatal(err)
		}
		if len(got) != len(keys) {
			b.Fatalf("got %d", len(got))
		}
	}
}
