package mcserver_test

import (
	"fmt"
	"net"
	"time"

	"hbb/internal/memcached"
	"hbb/internal/memcached/mcclient"
	"hbb/internal/memcached/mcserver"
)

// The burst buffer's key-value substrate running for real: a
// memcached-binary-protocol server on a loopback TCP port, exercised with
// the bundled client (sets, gets, CAS, counters, expiry and server
// statistics). Unlike the simulation, which moves byte counts, every
// payload here is real data over a real socket.
func ExampleServer() {
	srv := mcserver.New(memcached.Config{MemLimit: 64 << 20})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()
	defer func() { srv.Close(); <-done }()

	c, err := mcclient.Dial(ln.Addr().String(), time.Second)
	if err != nil {
		panic(err)
	}
	defer c.Close()

	version, _ := c.Version()
	fmt.Println("server version:", version)

	// Basic set/get.
	if _, err := c.Set(&mcclient.Item{Key: "block:42", Value: []byte("128MiB-of-HDFS-block"), Flags: 7}); err != nil {
		panic(err)
	}
	it, err := c.Get("block:42")
	if err != nil {
		panic(err)
	}
	fmt.Printf("get block:42 -> %q (flags %d, cas %d)\n", it.Value, it.Flags, it.CAS)

	// Optimistic concurrency with CAS.
	if _, err := c.CompareAndSwap(&mcclient.Item{Key: "block:42", Value: []byte("stale")}, it.CAS+99); mcclient.IsExists(err) {
		fmt.Println("stale CAS correctly rejected")
	}
	if _, err := c.CompareAndSwap(&mcclient.Item{Key: "block:42", Value: []byte("fresh")}, it.CAS); err != nil {
		panic(err)
	}

	// Counters (flush bookkeeping uses these in a real deployment).
	for i := 0; i < 5; i++ {
		if _, err := c.Incr("flushed-blocks", 1, 0, 0); err != nil {
			panic(err)
		}
	}
	v, _ := c.Incr("flushed-blocks", 0, 0, 0)
	fmt.Println("flushed-blocks counter:", v)

	// TTL: the item disappears after its expiry.
	if _, err := c.Set(&mcclient.Item{Key: "lease", Value: []byte("x"), Expiry: 1}); err != nil {
		panic(err)
	}
	time.Sleep(1100 * time.Millisecond)
	if _, err := c.Get("lease"); mcclient.IsNotFound(err) {
		fmt.Println("lease expired as scheduled")
	}

	stats, err := c.Stats()
	if err != nil {
		panic(err)
	}
	fmt.Printf("server stats: %s sets, %s gets, %s items, %s bytes\n",
		stats["cmd_set"], stats["cmd_get"], stats["curr_items"], stats["bytes"])
	// Output:
	// server version: hbb-memcached/1.1
	// get block:42 -> "128MiB-of-HDFS-block" (flags 7, cas 1)
	// stale CAS correctly rejected
	// flushed-blocks counter: 4
	// lease expired as scheduled
	// server stats: 10 sets, 2 gets, 2 items, 124 bytes
}
