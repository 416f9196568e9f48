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
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"hbb/internal/memcached"
	"hbb/internal/memcached/mcserver"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:11211", "listen address")
		memMB     = flag.Int64("mem-mb", 256, "item memory budget (MiB), like memcached -m")
		maxItemKB = flag.Int("max-item-kb", 1024, "max item size (KiB), like memcached -I")
		drain     = flag.Duration("drain", 5*time.Second, "how long shutdown waits for in-flight connections")
	)
	flag.Parse()

	srv := mcserver.New(memcached.Config{
		MemLimit:    *memMB << 20,
		MaxItemSize: *maxItemKB << 10,
	})
	go func() {
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt)
		<-sig
		fmt.Fprintln(os.Stderr, "memcachedd: shutting down")
		srv.Stop(*drain)
	}()
	log.Printf("memcachedd: %s listening on %s (mem %d MiB, max item %d KiB)",
		mcserver.Version, *addr, *memMB, *maxItemKB)
	if err := srv.ListenAndServe(*addr); err != nil {
		log.Fatal(err)
	}
}
