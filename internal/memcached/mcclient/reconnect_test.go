package mcclient

import (
	"errors"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"hbb/internal/memcached"
	"hbb/internal/memcached/mcserver"
)

// restartableServer runs an mcserver on a fixed loopback port so a test
// can kill it and bring a fresh instance back on the same address.
type restartableServer struct {
	t    *testing.T
	addr string
	srv  *mcserver.Server
}

func startRestartable(t *testing.T) *restartableServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rs := &restartableServer{t: t, addr: ln.Addr().String()}
	rs.srv = mcserver.New(memcached.Config{})
	go rs.srv.Serve(ln)
	t.Cleanup(func() { rs.srv.Close() })
	return rs
}

func (rs *restartableServer) kill() { rs.srv.Close() }

// restart brings a fresh (empty) server up on the same port. Loopback
// rebinding can race the dying listener, so it polls until the bind holds.
func (rs *restartableServer) restart() {
	rs.t.Helper()
	var ln net.Listener
	waitFor(rs.t, "rebind of "+rs.addr, func() bool {
		var err error
		ln, err = net.Listen("tcp", rs.addr)
		return err == nil
	})
	rs.srv = mcserver.New(memcached.Config{})
	go rs.srv.Serve(ln)
}

// noticedOutage reports whether the client has seen its connection fail
// (and has not yet replaced it).
func noticedOutage(c *Client) bool {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.err != nil
}

// redialing reports whether any client's reconnect loop is still running.
// The loop has no handle to wait on, so its goroutine is looked up the way
// a leak check would.
func redialing() bool {
	buf := make([]byte, 1<<20)
	return strings.Contains(string(buf[:runtime.Stack(buf, true)]), ".reconnectLoop(")
}

// TestReconnectResumesAfterRestart kills the server under a connected
// client with reconnect enabled: in-flight and interim ops fail fast with
// a transient *ConnError, and once the server is back the same client
// serves requests again without redialing by hand.
func TestReconnectResumesAfterRestart(t *testing.T) {
	rs := startRestartable(t)
	c, err := Dial(rs.addr, time.Second, WithReconnect(ReconnectPolicy{
		MaxAttempts: 50, BaseDelay: 5 * time.Millisecond, MaxDelay: 50 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Set(&Item{Key: "k", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	rs.kill()
	// The outage must surface as a fast typed error, not a hang.
	waitFor(t, "the kill to surface as an error", func() bool {
		_, err := c.Get("k")
		if err == nil {
			return false // a race: the get beat the kill
		}
		if !IsConnError(err) {
			t.Fatalf("outage error not a ConnError: %v", err)
		}
		if IsPermanent(err) {
			t.Fatalf("outage marked permanent while attempts remain: %v", err)
		}
		return true
	})
	rs.restart()
	// The restarted server is empty; any successful round-trip proves the
	// client reconnected transparently.
	waitFor(t, "the client to recover after the restart", func() bool {
		_, err := c.Set(&Item{Key: "k2", Value: []byte("v2")})
		return err == nil
	})
	it, err := c.Get("k2")
	if err != nil || string(it.Value) != "v2" {
		t.Fatalf("post-reconnect get: %v %v", it, err)
	}
}

// TestReconnectAttemptsExhaust pins the bounded-attempts contract: with
// the server gone for good, the client fails permanently after its budget
// and says so in the typed error.
func TestReconnectAttemptsExhaust(t *testing.T) {
	rs := startRestartable(t)
	c, err := Dial(rs.addr, time.Second, WithReconnect(ReconnectPolicy{
		MaxAttempts: 3, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Noop(); err != nil {
		t.Fatal(err)
	}
	rs.kill()
	waitFor(t, "the client to fail permanently after exhausting its attempts", func() bool {
		return IsPermanent(c.Noop())
	})
}

// TestCloseWinsOverReconnect checks Close during an outage sticks: no
// background redial resurrects an explicitly closed client.
func TestCloseWinsOverReconnect(t *testing.T) {
	rs := startRestartable(t)
	c, err := Dial(rs.addr, time.Second, WithReconnect(ReconnectPolicy{
		MaxAttempts: 100, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Noop(); err != nil {
		t.Fatal(err)
	}
	rs.kill()
	waitFor(t, "the client to notice the outage and start redialing", func() bool {
		return noticedOutage(c) && redialing()
	})
	c.Close()
	rs.restart()
	// Once the redial loop has seen the Close and gone, nothing is left
	// that could bring the client back.
	waitFor(t, "the redial loop to stop", func() bool { return !redialing() })
	if err := c.Noop(); err == nil {
		t.Fatal("closed client served a request after restart")
	} else if !errors.Is(err, ErrClosed) && !IsConnError(err) {
		t.Fatalf("closed client error has wrong type: %v", err)
	}
}

// TestNoReconnectByDefault pins the legacy sticky-error behaviour when no
// policy is configured.
func TestNoReconnectByDefault(t *testing.T) {
	rs := startRestartable(t)
	c, err := Dial(rs.addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Noop(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "earlier tests' redial loops to stop", func() bool { return !redialing() })
	rs.kill()
	rs.restart()
	waitFor(t, "the kill to surface as an error", func() bool { return c.Noop() != nil })
	// A redial is started before the failed callers are woken, so by now
	// it would be running.
	if redialing() {
		t.Fatal("client without reconnect policy started a redial")
	}
	if err := c.Noop(); err == nil {
		t.Fatal("client without reconnect policy recovered by itself")
	}
}
