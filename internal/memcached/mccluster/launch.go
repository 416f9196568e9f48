package mccluster

import (
	"fmt"
	"net"
	"time"

	"hbb/internal/memcached"
	"hbb/internal/memcached/mcserver"
)

// Local is a cluster of in-process mcserver instances on loopback TCP —
// the launcher substrate shared by cmd/mccluster, the failover tests, and
// the benchmarks. Each server is a full mcserver (own listener, own
// engine), so the client traffic crosses real sockets; "kill" and
// "restart" model a process crash (the restarted server comes back
// empty, which is what makes read repair observable).
type Local struct {
	cfg     memcached.Config
	servers []*mcserver.Server
	addrs   []string
}

// LaunchLocal starts n servers with the given engine config on ephemeral
// loopback ports.
func LaunchLocal(n int, cfg memcached.Config) (*Local, error) {
	if n < 1 {
		return nil, fmt.Errorf("mccluster: need at least 1 server, got %d", n)
	}
	l := &Local{cfg: cfg}
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			l.Close()
			return nil, err
		}
		srv := mcserver.New(cfg)
		go srv.Serve(ln)
		l.servers = append(l.servers, srv)
		l.addrs = append(l.addrs, ln.Addr().String())
	}
	return l, nil
}

// Addrs returns the server addresses in launch order.
func (l *Local) Addrs() []string { return append([]string(nil), l.addrs...) }

// Server returns server i (nil while killed).
func (l *Local) Server(i int) *mcserver.Server { return l.servers[i] }

// Kill force-closes server i: listener and every connection die, like a
// process crash.
func (l *Local) Kill(i int) {
	if l.servers[i] != nil {
		l.servers[i].Close()
		l.servers[i] = nil
	}
}

// Restart brings server i back empty on its original address. The old
// listener may still be unwinding, so the rebind retries briefly.
func (l *Local) Restart(i int) error {
	if l.servers[i] != nil {
		return fmt.Errorf("mccluster: server %d still running", i)
	}
	var ln net.Listener
	var err error
	for attempt := 0; attempt < 100; attempt++ {
		ln, err = net.Listen("tcp", l.addrs[i])
		if err == nil {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err != nil {
		return fmt.Errorf("mccluster: rebind %s: %w", l.addrs[i], err)
	}
	srv := mcserver.New(l.cfg)
	go srv.Serve(ln)
	l.servers[i] = srv
	return nil
}

// Close stops every running server.
func (l *Local) Close() {
	for i, s := range l.servers {
		if s != nil {
			s.Close()
			l.servers[i] = nil
		}
	}
}
