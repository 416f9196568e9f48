// Command memcachedd serves the repository's memcached engine over TCP
// using the memcached binary protocol — the stand-alone form of the
// key-value store the burst buffer is built on. It interoperates with any
// binary-protocol memcached client.
//
// Usage:
//
//	memcachedd -addr :11211 -mem-mb 512 -max-item-kb 1024
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"time"

	"hbb/internal/memcached"
	"hbb/internal/memcached/mcserver"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	if err := run(os.Args[1:], os.Stderr, stop); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "memcachedd:", err)
		os.Exit(1)
	}
}

// run is the command: it parses args, serves until a value arrives on
// stop, then shuts down, giving in-flight connections -drain to finish.
// The listening address and the shutdown are logged to stderr.
func run(args []string, stderr io.Writer, stop <-chan os.Signal) error {
	fset := flag.NewFlagSet("memcachedd", flag.ContinueOnError)
	fset.SetOutput(stderr)
	var (
		addr      = fset.String("addr", "127.0.0.1:11211", "listen address")
		memMB     = fset.Int64("mem-mb", 256, "item memory budget (MiB), like memcached -m")
		maxItemKB = fset.Int("max-item-kb", 1024, "max item size (KiB), like memcached -I")
		drain     = fset.Duration("drain", 5*time.Second, "how long shutdown waits for in-flight connections")
	)
	if err := fset.Parse(args); err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := mcserver.New(memcached.Config{
		MemLimit:    *memMB << 20,
		MaxItemSize: *maxItemKB << 10,
	})
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	fmt.Fprintf(stderr, "memcachedd: %s listening on %s (mem %d MiB, max item %d KiB)\n",
		mcserver.Version, ln.Addr(), *memMB, *maxItemKB)
	select {
	case err := <-served:
		return err
	case <-stop:
	}
	fmt.Fprintln(stderr, "memcachedd: shutting down")
	return errors.Join(srv.Stop(*drain), <-served)
}
