package mcclient

import (
	"bufio"
	"bytes"
	"io"
	"math/rand"
	"testing"

	"hbb/internal/memcached/binproto"
)

// queue registers cl on a connection-less client as issue would, so that a
// reader can be driven over any byte stream.
func queue(c *Client, cl *Call) {
	cl.done.Add(1)
	c.window <- struct{}{}
	c.wmu.Lock()
	cl.first = c.opaque + 1
	c.opaque = cl.first + uint32(cl.quiet)
	*c.calls.at(c.calls.n) = cl
	c.calls.n++
	c.wmu.Unlock()
}

// replyStream is a run of replies of every shape the reader meets, the
// calls they answer, and the offsets at which each reply ends: an empty
// SET reply, a GET hit, a quiet burst whose first key missed, a stats
// stream, and a value larger than the read buffer.
func replyStream(t testing.TB) (c *Client, calls []*Call, frames []binproto.Frame, wire []byte, ends []int) {
	c = &Client{window: make(chan struct{}, DefaultWindow)}
	calls = []*Call{{op: binproto.OpSet}, {op: binproto.OpGet}, {op: binproto.OpGetQ, quiet: 2}, {op: binproto.OpStat, stream: true}, {op: binproto.OpGet}}
	for _, cl := range calls {
		queue(c, cl)
	}
	big := make([]byte, 4096+5)
	rand.New(rand.NewSource(7)).Read(big)
	frames = []binproto.Frame{
		{Op: binproto.OpSet, Opaque: 1, CAS: 9},
		{Op: binproto.OpGet, Opaque: 2, Extras: binproto.GetExtras(3), Value: []byte("v")},
		{Op: binproto.OpGetQ, Opaque: 4, Extras: binproto.GetExtras(0), Value: []byte("second")},
		{Op: binproto.OpNoop, Opaque: 5},
		{Op: binproto.OpStat, Opaque: 6, Key: []byte("pid"), Value: []byte("1")},
		{Op: binproto.OpStat, Opaque: 6},
		{Op: binproto.OpGet, Opaque: 7, Extras: binproto.GetExtras(0), Value: big},
	}
	for i := range frames {
		frames[i].Magic = binproto.MagicResponse
		var err error
		if wire, err = binproto.AppendFrame(wire, &frames[i]); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(wire))
	}
	return c, calls, frames, wire, ends
}

// TestReaderMatchesRead cuts the reply stream at every byte and reads it
// with a client's reader: each whole reply decodes as binproto.Read
// decodes it, into bytes the reply owns (an empty body into none), and the
// cut reads as a bare io.EOF exactly where a reply ended, as
// io.ErrUnexpectedEOF anywhere inside one.
func TestReaderMatchesRead(t *testing.T) {
	_, _, _, wire, ends := replyStream(t)
	for cut := 0; cut <= len(wire); cut++ {
		c, calls, _, _, _ := replyStream(t)
		rd := &reader{c: c, r: bufio.NewReaderSize(bytes.NewReader(wire[:cut]), 4096)}
		want := bytes.NewReader(wire)
		whole := 0
		for whole < len(ends) && ends[whole] <= cut {
			whole++
		}
		var got []binproto.Frame
		for range whole {
			if err := rd.frame(); err != nil {
				t.Fatalf("cut %d: reply %d: %v", cut, len(got), err)
			}
		}
		wantErr := io.ErrUnexpectedEOF
		if whole == 0 && cut == 0 || whole > 0 && ends[whole-1] == cut {
			wantErr = io.EOF
		}
		if err := rd.frame(); err != wantErr {
			t.Fatalf("cut %d after %d whole replies: %v, want %v", cut, whole, err, wantErr)
		}
		if cut < len(wire) {
			continue
		}
		// Every call is answered; let the reader's buffers be overwritten
		// before looking at what the calls hold.
		rd.r.Reset(bytes.NewReader(bytes.Repeat([]byte{0xee}, 4096)))
		rd.r.Peek(4096)
		clear(rd.head[:cap(rd.head)])
		clear(rd.stage[:cap(rd.stage)])
		for _, cl := range calls {
			cl.done.Wait()
			if cl.err != nil {
				t.Fatal(cl.err)
			}
			got = append(append(got, cl.frames...), cl.resp)
		}
		for i := range got {
			ref, err := binproto.Read(want)
			if err != nil {
				t.Fatal(err)
			}
			g := &got[i]
			if g.Op != ref.Op || g.Opaque != ref.Opaque || g.CAS != ref.CAS || g.Status != ref.Status ||
				!bytes.Equal(g.Extras, ref.Extras) || !bytes.Equal(g.Key, ref.Key) || !bytes.Equal(g.Value, ref.Value) {
				t.Errorf("reply %d: reader %+v, Read %+v", i, *g, *ref)
			}
		}
		if e := got[0]; e.Extras != nil || e.Key != nil || e.Value != nil {
			t.Errorf("empty body allocated: %+v", e)
		}
		if c.calls.n != 0 {
			t.Errorf("%d calls left in the ring", c.calls.n)
		}
	}
}
