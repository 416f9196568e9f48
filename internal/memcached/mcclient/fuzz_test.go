package mcclient

import (
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"hbb/internal/memcached/binproto"
)

// FuzzClientReplies puts a Get, a 3-key GetMulti and a Stats in flight on
// one connection, answers them with arbitrary bytes and hangs up. Nothing
// may panic (a second completion of a call would), and every call must
// complete — with what the bytes said, or with a *ConnError — within a
// deadline.
func FuzzClientReplies(f *testing.F) {
	reply := func(frames ...binproto.Frame) []byte {
		var out []byte
		for _, fr := range frames {
			if fr.Magic == 0 {
				fr.Magic = binproto.MagicResponse
			}
			out, _ = binproto.AppendFrame(out, &fr)
		}
		return out
	}
	hit := binproto.GetExtras(0)
	// The opaques issue order gives: Get 1, GETQs 2-4 and their NOOP 5,
	// Stats 6.
	valid := reply(
		binproto.Frame{Op: binproto.OpGet, Opaque: 1, Extras: hit, Value: []byte("A")},
		binproto.Frame{Op: binproto.OpGetQ, Opaque: 2, Extras: hit, Value: []byte("a")},
		binproto.Frame{Op: binproto.OpGetQ, Opaque: 4, Extras: hit, Value: []byte("c")},
		binproto.Frame{Op: binproto.OpNoop, Opaque: 5},
		binproto.Frame{Op: binproto.OpStat, Opaque: 6, Key: []byte("pid"), Value: []byte("1")},
		binproto.Frame{Op: binproto.OpStat, Opaque: 6},
	)
	for cut := 0; cut <= len(valid); cut += 7 {
		f.Add(valid[:cut])
	}
	f.Add(valid)
	f.Add(reply( // quiet answers out of order
		binproto.Frame{Op: binproto.OpGet, Opaque: 1, Status: binproto.StatusKeyNotFound, Value: []byte("Not found")},
		binproto.Frame{Op: binproto.OpGetQ, Opaque: 4, Extras: hit, Value: []byte("c")},
		binproto.Frame{Op: binproto.OpGetQ, Opaque: 2, Extras: hit, Value: []byte("a")},
	))
	f.Add(reply( // a quiet answer twice
		binproto.Frame{Op: binproto.OpGet, Opaque: 1, Extras: hit},
		binproto.Frame{Op: binproto.OpGetQ, Opaque: 3, Extras: hit, Value: []byte("b")},
		binproto.Frame{Op: binproto.OpGetQ, Opaque: 3, Extras: hit, Value: []byte("b")},
	))
	f.Add(reply(binproto.Frame{Magic: binproto.MagicRequest, Op: binproto.OpGet, Opaque: 1}))
	f.Add(reply(binproto.Frame{Op: binproto.OpGet, Opaque: 1, Extras: []byte{1}, Value: []byte("short extras")}))
	notFound := reply(binproto.Frame{Op: binproto.OpGet, Opaque: 1, Status: binproto.StatusKeyNotFound})
	notFound[8], notFound[9], notFound[10], notFound[11] = 0x04, 0, 0, 0 // a MaxBody body
	f.Add(append(notFound, "not found"...))
	huge := reply(binproto.Frame{Op: binproto.OpGet, Opaque: 1, Extras: hit})
	huge[8], huge[9], huge[10], huge[11] = 0x04, 0, 0, 0
	f.Add(append(huge, make([]byte, 5000)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		cconn, sconn := net.Pipe()
		c := NewClient(cconn)
		defer c.Close()
		go io.Copy(io.Discard, sconn) // the requests; it returns when sconn closes
		done := make(chan error, 3)
		issue := func(queued int, op func() error) {
			go func() { done <- op() }()
			for deadline := time.Now().Add(5 * time.Second); inFlight(c) < queued; runtime.Gosched() {
				if time.Now().After(deadline) {
					t.Fatalf("%d opaques queued, want %d", inFlight(c), queued)
				}
			}
		}
		issue(1, func() error { _, err := c.Get("a"); return err })
		issue(5, func() error { _, err := c.GetMulti([]string{"a", "b", "c"}); return err })
		issue(6, func() error { _, err := c.Stats(); return err })
		sconn.Write(data) // fails once the client has given up on the connection
		sconn.Close()
		timeout := time.After(5 * time.Second)
		for range 3 {
			select {
			case <-done:
			case <-timeout:
				t.Fatal("a call did not complete after the server hung up")
			}
		}
	})
}
