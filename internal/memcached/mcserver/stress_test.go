package mcserver

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"hbb/internal/memcached"
	"hbb/internal/memcached/binproto"
	"hbb/internal/memcached/mcclient"
)

// startRawServer returns a running server and its address.
func startRawServer(t *testing.T, cfg memcached.Config) (*Server, string) {
	t.Helper()
	srv := New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close(); <-done })
	return srv, ln.Addr().String()
}

// TestConcurrentMixedOpsStress hammers the server from many connections
// with colliding keys across every mutating op. Under -race this checks
// that dropping the global dispatch mutex left no shared-state races; the
// final aggregate stats must balance.
func TestConcurrentMixedOpsStress(t *testing.T) {
	srv, addr := startRawServer(t, memcached.Config{MemLimit: 16 << 20, Shards: 8})
	const clients = 8
	ops := 300
	if testing.Short() {
		ops = 60
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for ci := 0; ci < clients; ci++ {
		ci := ci
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := mcclient.Dial(addr, time.Second)
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for i := 0; i < ops; i++ {
				key := fmt.Sprintf("hot-%d", i%17) // shared across all clients
				switch i % 6 {
				case 0:
					if _, err := c.Set(&mcclient.Item{Key: key, Value: []byte(key)}); err != nil {
						errs <- fmt.Errorf("set: %w", err)
						return
					}
				case 1:
					if it, err := c.Get(key); err == nil {
						// CAS races with other clients; both outcomes legal.
						if _, err := c.CompareAndSwap(&mcclient.Item{Key: key, Value: []byte("cas")}, it.CAS); err != nil &&
							!mcclient.IsExists(err) && !mcclient.IsNotFound(err) {
							errs <- fmt.Errorf("cas: %w", err)
							return
						}
					} else if !mcclient.IsNotFound(err) {
						errs <- fmt.Errorf("get: %w", err)
						return
					}
				case 2:
					if err := c.Delete(key); err != nil && !mcclient.IsNotFound(err) {
						errs <- fmt.Errorf("delete: %w", err)
						return
					}
				case 3:
					if _, err := c.Incr(fmt.Sprintf("ctr-%d", ci), 1, 0, 0); err != nil {
						errs <- fmt.Errorf("incr: %w", err)
						return
					}
				case 4:
					if _, err := c.Add(&mcclient.Item{Key: key, Value: []byte("add")}); err != nil && !mcclient.IsNotStored(err) {
						errs <- fmt.Errorf("add: %w", err)
						return
					}
				case 5:
					if _, err := c.Get(key); err != nil && !mcclient.IsNotFound(err) {
						errs <- fmt.Errorf("get2: %w", err)
						return
					}
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
	st := srv.Engine().Stats()
	if st.GetHits+st.GetMisses != st.CmdGet {
		t.Errorf("get accounting: hits %d + misses %d != cmds %d", st.GetHits, st.GetMisses, st.CmdGet)
	}
	if st.CurrItems < 0 || st.Bytes < 0 {
		t.Errorf("negative gauges: %+v", st)
	}
	if got := srv.ConnsAccepted(); got != clients {
		t.Errorf("ConnsAccepted = %d, want %d", got, clients)
	}
}

// TestQuietOpsOverTCP speaks raw GETQ/SETQ: quiet sets answer only on
// error, quiet gets answer only on hit, and the trailing NOOP bounds the
// batch.
func TestQuietOpsOverTCP(t *testing.T) {
	_, addr := startRawServer(t, memcached.Config{})
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	send := func(f *binproto.Frame) {
		f.Magic = binproto.MagicRequest
		if err := binproto.Write(conn, f); err != nil {
			t.Fatal(err)
		}
	}
	// Two quiet sets (should be silent), one quiet get hit, one quiet get
	// miss (silent), then NOOP.
	send(&binproto.Frame{Op: binproto.OpSetQ, Opaque: 1, Key: []byte("a"), Value: []byte("va"), Extras: binproto.SetExtras(0, 0)})
	send(&binproto.Frame{Op: binproto.OpSetQ, Opaque: 2, Key: []byte("b"), Value: []byte("vb"), Extras: binproto.SetExtras(0, 0)})
	send(&binproto.Frame{Op: binproto.OpGetQ, Opaque: 3, Key: []byte("a")})
	send(&binproto.Frame{Op: binproto.OpGetQ, Opaque: 4, Key: []byte("missing")})
	send(&binproto.Frame{Op: binproto.OpNoop, Opaque: 5})

	var got []*binproto.Frame
	for {
		f, err := binproto.Read(conn)
		if err != nil {
			t.Fatalf("read: %v (responses so far: %d)", err, len(got))
		}
		got = append(got, f)
		if f.Op == binproto.OpNoop {
			break
		}
	}
	if len(got) != 2 {
		t.Fatalf("got %d responses, want 2 (GETQ hit + NOOP)", len(got))
	}
	if got[0].Op != binproto.OpGetQ || got[0].Opaque != 3 || string(got[0].Value) != "va" {
		t.Errorf("GETQ hit response = %+v", got[0])
	}
	if got[1].Opaque != 5 {
		t.Errorf("NOOP opaque = %d, want 5", got[1].Opaque)
	}
	// SETQ on a failing op must answer with the error.
	send(&binproto.Frame{Op: binproto.OpSetQ, Opaque: 6, Key: []byte("a"), Value: []byte("x"), Extras: binproto.SetExtras(0, 0), CAS: 0xdead})
	send(&binproto.Frame{Op: binproto.OpNoop, Opaque: 7})
	f, err := binproto.Read(conn)
	if err != nil || f.Op != binproto.OpSetQ || f.Status != binproto.StatusKeyExists {
		t.Errorf("SETQ bad-CAS response = %+v %v", f, err)
	}
}

// slowSet returns the wire form of a SET of key with a 5-byte value, cut
// where the value begins.
func slowSet(t *testing.T, key string) (head, value []byte) {
	t.Helper()
	wire, err := binproto.AppendFrame(nil, &binproto.Frame{
		Magic: binproto.MagicRequest, Op: binproto.OpSet,
		Key: []byte(key), Extras: binproto.SetExtras(0, 0), Value: []byte("hello"),
	})
	if err != nil {
		t.Fatal(err)
	}
	return wire[:len(wire)-5], wire[len(wire)-5:]
}

// TestStopDrainsInFlight starts a slow store mid-transfer,
// then calls Stop with a drain window: the in-flight request completes and
// Stop returns once the handler exits.
func TestStopDrainsInFlight(t *testing.T) {
	srv := New(memcached.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Send the request up to its key, delay the value so the handler is
	// mid-request when Stop begins.
	head, value := slowSet(t, "slowkey")
	if _, err := conn.Write(head); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	stopDone := make(chan error, 1)
	go func() { stopDone <- srv.Stop(2 * time.Second) }()
	time.Sleep(20 * time.Millisecond) // listener now closed, handler still alive
	if _, err := conn.Write(value); err != nil {
		t.Fatalf("finish request: %v", err)
	}
	if f, err := binproto.Read(conn); err != nil || f.Status != binproto.StatusOK {
		t.Fatalf("reply = %+v, %v", f, err)
	}
	conn.Close() // handler's next read sees EOF and exits
	select {
	case err := <-stopDone:
		if err != nil {
			t.Fatalf("stop: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return after handlers drained")
	}
	<-done
	if it, err := srv.Engine().Get("slowkey"); err != nil || string(it.Value) != "hello" {
		t.Errorf("in-flight set lost during drain: %q, %v", it.Value, err)
	}
}

// TestStopForceClosesAfterTimeout verifies the drain timeout: a connection
// that never finishes its request is force-closed and Stop still returns.
func TestStopForceClosesAfterTimeout(t *testing.T) {
	srv := New(memcached.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	head, _ := slowSet(t, "stuck")
	if _, err := conn.Write(head); err != nil { // never send the value
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	if err := srv.Stop(50 * time.Millisecond); err != nil {
		t.Fatalf("stop: %v", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("Stop took %v despite 50ms drain timeout", elapsed)
	}
	<-done
}
