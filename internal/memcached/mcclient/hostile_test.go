package mcclient

import (
	"bufio"
	"net"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"hbb/internal/memcached/binproto"
)

// hostileClients is how many clients TestHostileServers runs.
const hostileClients = 1000

// TestHostileServers connects clients over in-memory pipes to servers that
// answer one GET properly and then turn hostile on a 2-key GetMulti, four
// ways in turn: (a) an OK reply declaring a MaxBody value that brings one
// byte and stalls, (b) a wrong or a repeated opaque, (c) a not-found reply
// declaring a MaxBody body that brings 1 KiB and stalls, (d) a request
// where a reply belongs. While they stall the clients together hold under
// 1 MiB more heap than before; once the servers hang up every call has
// completed exactly once with a *ConnError, and every goroutine is gone.
func TestHostileServers(t *testing.T) {
	base := runtime.NumGoroutine()
	heap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	release := make(chan struct{})
	var servers sync.WaitGroup
	clients := make([]*Client, hostileClients)
	sent := make([]chan struct{}, hostileClients)
	for i := range clients {
		cconn, sconn := net.Pipe()
		clients[i] = NewClient(cconn)
		sent[i] = make(chan struct{})
		servers.Add(1)
		go func() {
			defer servers.Done()
			defer sconn.Close()
			hostileServer(sconn, i%4, i/4%2 == 0, sent[i], release)
		}()
	}
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if it, err := c.Get("k"); err != nil || string(it.Value) != "v" {
				t.Errorf("the good round-trip: %v, %v", it, err)
			}
		}()
	}
	wg.Wait()

	done := make([]chan error, hostileClients)
	hostile := func(kinds ...int) {
		for i, c := range clients {
			if slices.Contains(kinds, i%4) {
				done[i] = make(chan error, 1)
				go func() {
					_, err := c.GetMulti([]string{"a", "b"})
					done[i] <- err
				}()
			}
		}
		for i := range clients {
			if slices.Contains(kinds, i%4) {
				<-sent[i]
			}
		}
	}
	// The stalling kinds go first: a client the others fail lets go of its
	// buffers, which would hide what the stalled ones hold.
	before := heap()
	hostile(0, 2)
	grew := heap() - before
	if grew >= 1<<20 {
		t.Errorf("%d clients facing stalled hostile servers grew the heap by %d bytes", hostileClients/2, grew)
	}
	t.Logf("%d clients, stalled: heap grew by %d bytes", hostileClients/2, grew)
	errs := make([]error, hostileClients)
	hostile(1, 3)
	deadline := time.Now().Add(10 * time.Second)
	for i := range clients {
		if i%4 == 1 || i%4 == 3 {
			select {
			case errs[i] = <-done[i]:
			case <-time.After(time.Until(deadline)):
				t.Errorf("client %d (kind %c): a violation left the call waiting", i, 'a'+i%4)
			}
		}
	}
	close(release)
	deadline = time.Now().Add(10 * time.Second)
	for i := range clients {
		if i%4 == 0 || i%4 == 2 {
			select {
			case errs[i] = <-done[i]:
			case <-time.After(time.Until(deadline)):
				t.Fatalf("client %d: the call did not complete after the server hung up", i)
			}
		}
		if !IsConnError(errs[i]) {
			t.Errorf("client %d (kind %c): %v, want a *ConnError", i, 'a'+i%4, errs[i])
		}
	}
	servers.Wait()
	waitFor(t, "the readers to exit", func() bool { return runtime.NumGoroutine() <= base })
	for _, c := range clients {
		c.Close()
	}
}

// hostileServer answers the first request, a GET, and then the GetMulti
// (two GETQs and a NOOP) in the given kind's way. It closes sent once the
// client has taken the hostile bytes in, and returns on release.
func hostileServer(conn net.Conn, kind int, wrong bool, sent chan<- struct{}, release <-chan struct{}) {
	r := bufio.NewReader(conn)
	var req binproto.Frame
	var buf []byte
	defer func() {
		close(sent)
		<-release
		// The server's buffers are not the client's to give back.
		runtime.KeepAlive(r)
		runtime.KeepAlive(buf)
	}()
	buf, err := binproto.ReadFrame(r, &req, buf)
	if err != nil {
		return
	}
	write := func(f binproto.Frame, bodyLen int) {
		if f.Magic == 0 {
			f.Magic = binproto.MagicResponse
		}
		b, _ := binproto.AppendFrame(nil, &f) // every frame here is valid
		if bodyLen > 0 {
			b[8], b[9], b[10], b[11] = byte(bodyLen>>24), byte(bodyLen>>16), byte(bodyLen>>8), byte(bodyLen)
		}
		conn.Write(b)
	}
	write(binproto.Frame{Op: binproto.OpGet, Opaque: req.Opaque, Extras: binproto.GetExtras(0), Value: []byte("v")}, 0)
	var first uint32
	for i := range 3 {
		if buf, err = binproto.ReadFrame(r, &req, buf); err != nil {
			return
		}
		if i == 0 {
			first = req.Opaque
		}
	}
	switch kind {
	case 0:
		write(binproto.Frame{Op: binproto.OpGetQ, Opaque: first, Extras: binproto.GetExtras(0)}, binproto.MaxBody)
		conn.Write([]byte{1}) // returns once the client has read past the head
	case 1:
		if wrong {
			write(binproto.Frame{Op: binproto.OpGetQ, Opaque: first + 9, Extras: binproto.GetExtras(0)}, 0)
			return
		}
		hit := binproto.Frame{Op: binproto.OpGetQ, Opaque: first + 1, Extras: binproto.GetExtras(0), Value: []byte("b")}
		write(hit, 0)
		write(hit, 0)
	case 2:
		write(binproto.Frame{Op: binproto.OpGetQ, Opaque: first, Status: binproto.StatusKeyNotFound}, binproto.MaxBody)
		conn.Write(make([]byte, 1024))
	case 3:
		write(binproto.Frame{Magic: binproto.MagicRequest, Op: binproto.OpGetQ, Opaque: first}, 0)
	}
}
