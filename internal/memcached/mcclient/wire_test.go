package mcclient

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hbb/internal/memcached"
	"hbb/internal/memcached/binproto"
	"hbb/internal/memcached/mcserver"
)

// wireConn wraps a client's connection to count its Write calls and bytes,
// to record what went out, and to hold one Write open so a test can queue
// operations behind a flush that is in progress.
type wireConn struct {
	net.Conn
	writes, bytes atomic.Int64
	sum           atomic.Int64 // of the bytes read late by a stalled Write

	mu       sync.Mutex
	record   bool
	wire     bytes.Buffer  // everything written, when record is set
	stall    chan struct{} // non-nil: the next Write of at least stallMin bytes waits for it to be closed
	stallMin int
	entered  chan struct{} // closed when that Write has started waiting
	failure  error         // what the stalled Write returns instead of writing
}

func (w *wireConn) Write(p []byte) (int, error) {
	w.mu.Lock()
	stall, entered, failure := w.stall, w.entered, w.failure
	if stall != nil && len(p) < w.stallMin {
		stall = nil
	}
	if stall != nil {
		w.stall, w.failure = nil, nil
	}
	w.mu.Unlock()
	if stall != nil {
		close(entered)
		<-stall
		// Reading p only now stands in for a kernel that is still copying
		// from the caller's buffer: under -race, a caller that got its
		// value back before this write returned and reused it is reported.
		for _, b := range p {
			w.sum.Add(int64(b))
		}
		if failure != nil {
			return 0, failure
		}
	}
	w.writes.Add(1)
	w.bytes.Add(int64(len(p)))
	w.mu.Lock()
	if w.record {
		w.wire.Write(p)
	}
	w.mu.Unlock()
	return w.Conn.Write(p)
}

// holdNextWrite makes the next Write of at least minLen bytes block until
// release is called; if failure is non-nil that Write then fails with it.
// entered is closed once the Write is blocked.
func (w *wireConn) holdNextWrite(minLen int, failure error) (entered <-chan struct{}, release func()) {
	stall, ent := make(chan struct{}), make(chan struct{})
	w.mu.Lock()
	w.stall, w.stallMin, w.entered, w.failure = stall, minLen, ent, failure
	w.mu.Unlock()
	return ent, func() { close(stall) }
}

// requests decodes the recorded wire bytes into the requests sent, in order.
func (w *wireConn) requests(t *testing.T) []*binproto.Frame {
	t.Helper()
	w.mu.Lock()
	r := bytes.NewReader(append([]byte(nil), w.wire.Bytes()...))
	w.mu.Unlock()
	var out []*binproto.Frame
	for r.Len() > 0 {
		f, err := binproto.Read(r)
		if err != nil {
			t.Fatalf("recorded wire bytes do not parse: %v", err)
		}
		out = append(out, f)
	}
	return out
}

// serveLocal runs a real mcserver on an ephemeral loopback port.
func serveLocal(t testing.TB) string {
	t.Helper()
	srv := mcserver.New(memcached.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close(); <-done })
	return ln.Addr().String()
}

// wireClient connects a client to a real mcserver through a wireConn.
func wireClient(t testing.TB, opts ...Option) (*Client, *wireConn) {
	t.Helper()
	addr := serveLocal(t)
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	w := &wireConn{Conn: conn}
	c := newClient(w, addr, time.Second, opts...)
	t.Cleanup(func() { c.Close() })
	return c, w
}

// BenchmarkClientParallel is the group-commit headline at the client layer:
// 8 callers share one connection to a real mcserver, reading only or mixing
// reads and writes 50/50, and writes/op says how many socket writes an
// operation cost (1 when every caller flushes for itself).
func BenchmarkClientParallel(b *testing.B) {
	const callers, keys = 8, 512
	for _, mix := range []struct {
		name     string
		setEvery int // every n-th op of a caller is a SET; 0 for none
	}{{"Get", 0}, {"GetSet", 2}} {
		b.Run(mix.name, func(b *testing.B) {
			c, w := wireClient(b)
			value := bytes.Repeat([]byte{'v'}, 64)
			names := make([]string, keys)
			items := make([]*Item, keys)
			for i := range names {
				names[i] = fmt.Sprintf("par:%04d", i)
				items[i] = &Item{Key: names[i], Value: value}
			}
			if _, err := c.SetMulti(items); err != nil {
				b.Fatal(err)
			}
			before := w.writes.Load()
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			for g := 0; g < callers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := g; i < b.N; i += callers {
						var err error
						if mix.setEvery > 0 && (i/callers)%mix.setEvery == 0 {
							_, err = c.Set(items[i%keys])
						} else {
							_, err = c.Get(names[i%keys])
						}
						if err != nil {
							b.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
			b.StopTimer()
			b.ReportMetric(float64(w.writes.Load()-before)/float64(b.N), "writes/op")
		})
	}
}
