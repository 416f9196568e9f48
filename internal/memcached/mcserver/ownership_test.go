package mcserver

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"hbb/internal/memcached"
	"hbb/internal/memcached/binproto"
	"hbb/internal/memcached/mcclient"
)

// setHead returns the wire form of a SET request up to its value, whose
// length the header declares as valueLen.
func setHead(t *testing.T, key string, valueLen int) []byte {
	t.Helper()
	f := &binproto.Frame{Magic: binproto.MagicRequest, Op: binproto.OpSet, Key: []byte(key), Extras: binproto.SetExtras(0, 0)}
	head, err := binproto.AppendHeader(nil, f)
	if err != nil {
		t.Fatal(err)
	}
	body := len(f.Extras) + len(f.Key) + valueLen
	head[8], head[9], head[10], head[11] = byte(body>>24), byte(body>>16), byte(body>>8), byte(body)
	return head
}

func dialRaw(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// roundTrip sends a request and reads its reply.
func roundTrip(t *testing.T, conn net.Conn, f *binproto.Frame) *binproto.Frame {
	t.Helper()
	f.Magic = binproto.MagicRequest
	if err := binproto.Write(conn, f); err != nil {
		t.Fatal(err)
	}
	reply, err := binproto.Read(conn)
	if err != nil {
		t.Fatalf("%v: %v", f.Op, err)
	}
	return reply
}

// waitFor polls cond, which the server reaches on its own time.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func heapAlloc() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// TestDeclaredHugeBodiesAllocateNothing: a thousand peers each declare a 64
// MiB SET and send nothing more. The server reads each head, finds the item
// cannot be stored and waits to discard a body that never comes; what it
// holds for them is what it held for the idle connections.
func TestDeclaredHugeBodiesAllocateNothing(t *testing.T) {
	conns := 1000
	if testing.Short() {
		conns = 100
	}
	srv, addr := startRawServer(t, memcached.Config{})
	peers := make([]net.Conn, conns)
	for i := range peers {
		peers[i] = dialRaw(t, addr)
		// One round-trip, so that the connection's handler and its buffers
		// exist before the baseline is taken.
		if r := roundTrip(t, peers[i], &binproto.Frame{Op: binproto.OpNoop}); r.Status != binproto.StatusOK {
			t.Fatalf("noop: %v", r.Status)
		}
	}
	head := setHead(t, "huge", binproto.MaxBody-16)
	heap, mapped := heapAlloc(), memcached.MappedBytes()
	for _, c := range peers {
		if _, err := c.Write(head); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "every head to be read", func() bool { return srv.Engine().Stats().CmdSet == int64(conns) })
	grown := heapAlloc() - heap + memcached.MappedBytes() - mapped
	if grown >= 1<<20 {
		t.Errorf("%d declared 64 MiB bodies grew heap and mapped memory by %d bytes, want under 1 MiB", conns, grown)
	}
	// A well-behaved client beside them is served.
	good := dialRaw(t, addr)
	if r := roundTrip(t, good, &binproto.Frame{Op: binproto.OpSet, Key: []byte("k"), Value: []byte("v"), Extras: binproto.SetExtras(0, 0)}); r.Status != binproto.StatusOK {
		t.Errorf("set beside the stalled peers: %v", r.Status)
	}
}

// TestOversizedSetsAreDiscarded: SETs of twice MaxItemSize, bodies sent in
// full, are each answered "value too large" without the body landing
// anywhere, and the connection stays in frame.
func TestOversizedSetsAreDiscarded(t *testing.T) {
	sets := 1000
	if testing.Short() {
		sets = 50
	}
	srv, addr := startRawServer(t, memcached.Config{})
	conn := dialRaw(t, addr)
	wire := append(setHead(t, "big", 2<<20), make([]byte, 2<<20)...)
	replies := make(chan error, 1)
	go func() {
		for i := 0; i < sets; i++ {
			r, err := binproto.Read(conn)
			if err == nil && r.Status != binproto.StatusValueTooLarge {
				err = fmt.Errorf("set %d: status %v, want value too large", i, r.Status)
			}
			if err != nil {
				replies <- err
				return
			}
		}
		replies <- nil
	}()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < sets; i++ {
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-replies; err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	// Both ends of the connection are in this process: the budget covers
	// the replies this test decodes as well as the server.
	if perSet := (after.TotalAlloc - before.TotalAlloc) / uint64(sets); perSet > 4<<10 {
		t.Errorf("%d bytes allocated per refused 2 MiB SET, want at most 4 KiB", perSet)
	}
	if m := srv.Engine().Mapped(); m != 0 {
		t.Errorf("refused SETs mapped %d bytes", m)
	}
	value := bytes.Repeat([]byte("ok"), 10<<10)
	if r := roundTrip(t, conn, &binproto.Frame{Op: binproto.OpSet, Key: []byte("k"), Value: value, Extras: binproto.SetExtras(0, 0)}); r.Status != binproto.StatusOK {
		t.Fatalf("set after the refused ones: %v", r.Status)
	}
	if r := roundTrip(t, conn, &binproto.Frame{Op: binproto.OpGet, Key: []byte("k")}); r.Status != binproto.StatusOK || !bytes.Equal(r.Value, value) {
		t.Fatalf("get after the refused ones: %v, %d bytes", r.Status, len(r.Value))
	}
}

// TestValueOnOpcodeThatTakesNoneIsRefused: the value is discarded, the
// request answered "invalid arguments", the next one served.
func TestValueOnOpcodeThatTakesNoneIsRefused(t *testing.T) {
	_, addr := startRawServer(t, memcached.Config{})
	conn := dialRaw(t, addr)
	junk := make([]byte, 100<<10)
	for _, op := range []binproto.Opcode{binproto.OpGet, binproto.OpDelete, binproto.OpNoop, binproto.OpTouch, binproto.OpVersion} {
		if r := roundTrip(t, conn, &binproto.Frame{Op: op, Key: []byte("k"), Value: junk}); r.Status != binproto.StatusInvalidArgs {
			t.Errorf("%v with a value: %v, want invalid arguments", op, r.Status)
		}
	}
	if r := roundTrip(t, conn, &binproto.Frame{Op: binproto.OpSet, Key: []byte("k"), Value: junk}); r.Status != binproto.StatusInvalidArgs {
		t.Errorf("SET without extras: %v, want invalid arguments", r.Status)
	}
	if r := roundTrip(t, conn, &binproto.Frame{Op: binproto.OpNoop}); r.Status != binproto.StatusOK {
		t.Errorf("noop after the refused requests: %v", r.Status)
	}
}

// TestNonBinaryFirstByteClosesConnection: the port speaks the binary
// protocol only.
func TestNonBinaryFirstByteClosesConnection(t *testing.T) {
	_, addr := startRawServer(t, memcached.Config{})
	conn := dialRaw(t, addr)
	if _, err := conn.Write([]byte("get k\r\n")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := conn.Read(make([]byte, 64)); err != io.EOF {
		t.Errorf("read after an ASCII command: %d bytes, %v; want the connection closed", n, err)
	}
}

// TestAbandonedSetGivesReservationBack: a peer that closes in the middle of
// a large value leaves the engine as it found it.
func TestAbandonedSetGivesReservationBack(t *testing.T) {
	srv, addr := startRawServer(t, memcached.Config{MemLimit: 8 << 20})
	const size = 256 << 10
	// One item stored and one chunk freed, so that the class's page and the
	// chunk the abandoned SETs will use exist before the baseline.
	warm := dialRaw(t, addr)
	for _, key := range []string{"kept", "freed"} {
		if r := roundTrip(t, warm, &binproto.Frame{Op: binproto.OpSet, Key: []byte(key), Value: make([]byte, size), Extras: binproto.SetExtras(0, 0)}); r.Status != binproto.StatusOK {
			t.Fatal(r.Status)
		}
	}
	if r := roundTrip(t, warm, &binproto.Frame{Op: binproto.OpDelete, Key: []byte("freed")}); r.Status != binproto.StatusOK {
		t.Fatal(r.Status)
	}
	e := srv.Engine()
	items, slabs, mapped := e.Stats().CurrItems, e.Slabs(), e.Mapped()
	held := func() (n int64) {
		for _, c := range e.Slabs() {
			n += c.Held
		}
		return n
	}
	for i := 0; i < 5; i++ {
		conn := dialRaw(t, addr)
		if _, err := conn.Write(append(setHead(t, fmt.Sprintf("gone-%d", i), size), make([]byte, size/2)...)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "the reservation", func() bool { return held() == 1 })
		conn.Close()
		waitFor(t, "the abort", func() bool { return held() == 0 })
	}
	if got := e.Stats().CurrItems; got != items {
		t.Errorf("CurrItems %d -> %d", items, got)
	}
	if got := e.Mapped(); got != mapped {
		t.Errorf("mapped %d -> %d", mapped, got)
	}
	for i, c := range e.Slabs() {
		if c != slabs[i] {
			t.Errorf("class %d: %+v -> %+v", i, slabs[i], c)
		}
	}
}

// TestCloseGivesTheMemoryBack: three start/fill/Close cycles leave nothing
// mapped, and a server that was only Stopped keeps its items.
func TestCloseGivesTheMemoryBack(t *testing.T) {
	before := memcached.MappedBytes()
	for cycle := 0; cycle < 3; cycle++ {
		srv := New(memcached.Config{MemLimit: 16 << 20})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		done := make(chan struct{})
		go func() { defer close(done); _ = srv.Serve(ln) }()
		c, err := mcclient.Dial(ln.Addr().String(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 100; i++ { // 25 MiB into 16
			if _, err := c.Set(&mcclient.Item{Key: fmt.Sprintf("k%d", i), Value: make([]byte, 256<<10)}); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
		if got := memcached.MappedBytes() - before; got <= 0 || got > 16<<20 {
			t.Errorf("cycle %d: %d bytes mapped while full, want within (0, MemLimit]", cycle, got)
		}
		if cycle == 0 {
			srv.Stop(time.Second)
			if srv.Engine().Stats().CurrItems == 0 || srv.Engine().Mapped() == 0 {
				t.Error("Stop emptied the engine")
			}
		}
		srv.Close()
		<-done
		if got := memcached.MappedBytes(); got != before {
			t.Errorf("cycle %d: process mapped bytes %d -> %d after Close", cycle, before, got)
		}
		if srv.Engine().Stats().CurrItems != 0 {
			t.Errorf("cycle %d: items left after Close", cycle)
		}
	}
}

// TestConcurrentLargeValueReadersWriters: GET replies are sent from the
// pinned chunk while writers overwrite and evict the same keys; every reply
// is one writer's whole value, never a mix.
func TestConcurrentLargeValueReadersWriters(t *testing.T) {
	_, addr := startRawServer(t, memcached.Config{MemLimit: 4 << 20})
	const keys, size = 24, 200 << 10 // more than fits: writers evict too
	rounds := 150
	if testing.Short() {
		rounds = 30
	}
	value := func(stamp byte) []byte { return bytes.Repeat([]byte{stamp}, size) }
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c, err := mcclient.Dial(addr, time.Second)
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < rounds; i++ {
				key := fmt.Sprintf("blk-%d", rng.Intn(keys))
				if g%2 == 0 {
					if _, err := c.Set(&mcclient.Item{Key: key, Value: value(byte(g*40 + i%40))}); err != nil {
						t.Errorf("set: %v", err)
						return
					}
					continue
				}
				it, err := c.Get(key)
				if mcclient.IsNotFound(err) {
					continue
				}
				if err != nil {
					t.Errorf("get: %v", err)
					return
				}
				if len(it.Value) != size || !bytes.Equal(it.Value, value(it.Value[0])) {
					t.Errorf("get %s: a torn value", key)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
