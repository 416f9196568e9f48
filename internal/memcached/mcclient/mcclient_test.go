package mcclient

import (
	"errors"
	"net"
	"testing"
	"time"

	"hbb/internal/memcached"
	"hbb/internal/memcached/binproto"
	"hbb/internal/memcached/mcserver"
)

// fakeServer answers each request with a canned responder function.
func fakeServer(t *testing.T, respond func(req *binproto.Frame) *binproto.Frame) *Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			req, err := binproto.Read(conn)
			if err != nil {
				return
			}
			resp := respond(req)
			if resp == nil {
				return
			}
			if err := binproto.Write(conn, resp); err != nil {
				return
			}
		}
	}()
	t.Cleanup(func() { ln.Close() })
	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestStatusErrorPredicates(t *testing.T) {
	nf := &StatusError{Op: binproto.OpGet, Status: binproto.StatusKeyNotFound}
	ex := &StatusError{Op: binproto.OpSet, Status: binproto.StatusKeyExists}
	ns := &StatusError{Op: binproto.OpAdd, Status: binproto.StatusItemNotStored}
	if !IsNotFound(nf) || IsNotFound(ex) || IsNotFound(nil) {
		t.Error("IsNotFound misclassifies")
	}
	if !IsExists(ex) || IsExists(ns) {
		t.Error("IsExists misclassifies")
	}
	if !IsNotStored(ns) || IsNotStored(nf) {
		t.Error("IsNotStored misclassifies")
	}
	if nf.Error() == "" || ex.Error() == ns.Error() {
		t.Error("StatusError strings not distinctive")
	}
}

func TestOpaqueMismatchDetected(t *testing.T) {
	c := fakeServer(t, func(req *binproto.Frame) *binproto.Frame {
		return &binproto.Frame{
			Magic: binproto.MagicResponse, Op: req.Op,
			Opaque: req.Opaque + 1, // wrong correlation id
		}
	})
	if err := c.Noop(); err == nil {
		t.Error("opaque mismatch not surfaced")
	}
}

// TestRequestMagicReplyFailsConnection: a frame that claims to be a
// request is no reply, whatever its opaque, and fails the connection.
func TestRequestMagicReplyFailsConnection(t *testing.T) {
	c := fakeServer(t, func(req *binproto.Frame) *binproto.Frame {
		return &binproto.Frame{Magic: binproto.MagicRequest, Op: req.Op, Opaque: req.Opaque}
	})
	if err := c.Noop(); !IsConnError(err) || !errors.Is(err, binproto.ErrBadMagic) {
		t.Errorf("reply with request magic: %v, want a *ConnError for ErrBadMagic", err)
	}
}

func TestNonOKStatusBecomesStatusError(t *testing.T) {
	c := fakeServer(t, func(req *binproto.Frame) *binproto.Frame {
		return &binproto.Frame{
			Magic: binproto.MagicResponse, Op: req.Op, Opaque: req.Opaque,
			Status: binproto.StatusOutOfMemory,
		}
	})
	_, err := c.Set(&Item{Key: "k", Value: []byte("v")})
	se, ok := err.(*StatusError)
	if !ok || se.Status != binproto.StatusOutOfMemory {
		t.Errorf("err = %v", err)
	}
}

func TestRequestEncoding(t *testing.T) {
	var got *binproto.Frame
	c := fakeServer(t, func(req *binproto.Frame) *binproto.Frame {
		cp := *req
		got = &cp
		return &binproto.Frame{Magic: binproto.MagicResponse, Op: req.Op, Opaque: req.Opaque, CAS: 9}
	})
	cas, err := c.Set(&Item{Key: "key", Value: []byte("val"), Flags: 3, Expiry: 60})
	if err != nil || cas != 9 {
		t.Fatalf("set: %d, %v", cas, err)
	}
	if got.Op != binproto.OpSet || string(got.Key) != "key" || string(got.Value) != "val" {
		t.Errorf("request = %+v", got)
	}
	flags, exp, err := binproto.ParseSetExtras(got.Extras)
	if err != nil || flags != 3 || exp != 60 {
		t.Errorf("extras = %d/%d, %v", flags, exp, err)
	}
}

func TestServerDisconnectSurfacesError(t *testing.T) {
	c := fakeServer(t, func(req *binproto.Frame) *binproto.Frame {
		return nil // close the connection instead of answering
	})
	if err := c.Noop(); err == nil {
		t.Error("dropped connection not surfaced")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 50*time.Millisecond); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

// TestFullClientAgainstRealServer exercises every client method against
// the bundled server over loopback TCP.
func TestFullClientAgainstRealServer(t *testing.T) {
	srv := mcserver.New(memcached.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()
	t.Cleanup(func() { srv.Close(); <-done })
	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })

	if v, err := c.Version(); err != nil || v == "" {
		t.Fatalf("version: %q %v", v, err)
	}
	if err := c.Noop(); err != nil {
		t.Fatalf("noop: %v", err)
	}
	cas, err := c.Set(&Item{Key: "k", Value: []byte("v1"), Flags: 5})
	if err != nil {
		t.Fatalf("set: %v", err)
	}
	it, err := c.Get("k")
	if err != nil || string(it.Value) != "v1" || it.Flags != 5 || it.CAS != cas {
		t.Fatalf("get: %+v %v", it, err)
	}
	if _, err := c.Add(&Item{Key: "k", Value: []byte("x")}); !IsNotStored(err) {
		t.Errorf("add existing: %v", err)
	}
	if _, err := c.Replace(&Item{Key: "k", Value: []byte("v2")}); err != nil {
		t.Errorf("replace: %v", err)
	}
	it, _ = c.Get("k")
	if _, err := c.CompareAndSwap(&Item{Key: "k", Value: []byte("v3")}, it.CAS+1); !IsExists(err) {
		t.Errorf("stale cas: %v", err)
	}
	if _, err := c.CompareAndSwap(&Item{Key: "k", Value: []byte("v3")}, it.CAS); err != nil {
		t.Errorf("cas: %v", err)
	}
	if v, err := c.Incr("n", 3, 10, 0); err != nil || v != 10 {
		t.Errorf("incr init: %d %v", v, err)
	}
	if v, err := c.Decr("n", 4, 0, 0); err != nil || v != 6 {
		t.Errorf("decr: %d %v", v, err)
	}
	if err := c.Touch("k", 3600); err != nil {
		t.Errorf("touch: %v", err)
	}
	if err := c.Touch("missing", 1); !IsNotFound(err) {
		t.Errorf("touch missing: %v", err)
	}
	if err := c.Delete("k"); err != nil {
		t.Errorf("delete: %v", err)
	}
	if err := c.Delete("k"); !IsNotFound(err) {
		t.Errorf("double delete: %v", err)
	}
	stats, err := c.Stats()
	if err != nil || stats["cmd_set"] == "" {
		t.Errorf("stats: %v %v", stats, err)
	}
	if err := c.Flush(); err != nil {
		t.Errorf("flush: %v", err)
	}
	if _, err := c.Get("n"); !IsNotFound(err) {
		t.Errorf("get after flush: %v", err)
	}
}
