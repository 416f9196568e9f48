package mccluster

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"

	"hbb/internal/memcached"
	"hbb/internal/memcached/mcclient"
)

// The block path's roofline: what this host moves when the bytes of
// kv_block_stream cross the same loopback sockets with no protocol, no
// engine and no allocation. A block is 32 chunks of 256 KiB; a write sends
// every chunk to two of three peers (R=2) with one writev per peer, a read
// fetches every chunk from one peer with io.ReadFull into a reused buffer.
// One caller per processor, each with its own connections, as favourable
// as sockets get. BenchmarkBlockCluster moves the same blocks through
// Cluster.SetMulti and GetMulti, so that the two MB/s columns (user bytes,
// 1e6 per MB, as the benchmark's write_mb_per_s and read_mb_per_s count
// them) divide into the fraction of the roofline the tier reaches.
const (
	roofPeers      = 3
	roofChunks     = 32
	roofChunkBytes = 256 << 10
)

// roofPeer serves one connection: a command byte and a chunk count, then
// 'W' chunks to swallow and acknowledge, or 'R' chunks to send.
func roofPeer(conn net.Conn) {
	defer conn.Close()
	chunk := make([]byte, roofChunkBytes)
	var cmd [2]byte
	var out net.Buffers
	for {
		if _, err := io.ReadFull(conn, cmd[:]); err != nil {
			return
		}
		n := int(cmd[1])
		if cmd[0] == 'W' {
			for i := 0; i < n; i++ {
				if _, err := io.ReadFull(conn, chunk); err != nil {
					return
				}
			}
			if _, err := conn.Write(cmd[:1]); err != nil {
				return
			}
			continue
		}
		out = out[:0]
		for i := 0; i < n; i++ {
			out = append(out, chunk)
		}
		if _, err := out.WriteTo(conn); err != nil {
			return
		}
	}
}

// roofCaller is one caller's connections and its block.
type roofCaller struct {
	conns  [roofPeers]net.Conn
	chunks [roofChunks][]byte
}

func (c *roofCaller) write() error {
	for p, conn := range c.conns {
		// Chunk i lives on peers i%3 and (i+1)%3.
		bufs := net.Buffers{nil}
		for i, chunk := range c.chunks {
			if i%roofPeers == p || (i+1)%roofPeers == p {
				bufs = append(bufs, chunk)
			}
		}
		bufs[0] = []byte{'W', byte(len(bufs) - 1)}
		if _, err := bufs.WriteTo(conn); err != nil {
			return err
		}
	}
	var ack [1]byte
	for _, conn := range c.conns {
		if _, err := io.ReadFull(conn, ack[:]); err != nil {
			return err
		}
	}
	return nil
}

func (c *roofCaller) read() error {
	for p, conn := range c.conns {
		n := (roofChunks - p + roofPeers - 1) / roofPeers // chunks with i%3 == p
		if _, err := conn.Write([]byte{'R', byte(n)}); err != nil {
			return err
		}
	}
	for i, chunk := range c.chunks {
		if _, err := io.ReadFull(c.conns[i%roofPeers], chunk); err != nil {
			return err
		}
	}
	return nil
}

// runBlocks runs b.N blocks split over one caller per processor.
func runBlocks(b *testing.B, callers int, block func(caller int) error) {
	b.SetBytes(roofChunks * roofChunkBytes)
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		n := b.N / callers
		if c < b.N%callers {
			n++
		}
		wg.Add(1)
		go func(c, n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if err := block(c); err != nil {
					b.Error(err)
					return
				}
			}
		}(c, n)
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)*roofChunks*roofChunkBytes/1e6/b.Elapsed().Seconds(), "MB/s")
}

func BenchmarkBlockRoofline(b *testing.B) {
	var peers [roofPeers]net.Listener
	for i := range peers {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		defer ln.Close()
		peers[i] = ln
		go func() {
			for {
				conn, err := ln.Accept()
				if err != nil {
					return
				}
				go roofPeer(conn)
			}
		}()
	}
	callers := make([]*roofCaller, runtime.GOMAXPROCS(0))
	for i := range callers {
		c := &roofCaller{}
		for p, ln := range peers {
			conn, err := net.Dial("tcp", ln.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			c.conns[p] = conn
		}
		for j := range c.chunks {
			c.chunks[j] = make([]byte, roofChunkBytes)
		}
		callers[i] = c
	}
	b.Run("Write", func(b *testing.B) {
		runBlocks(b, len(callers), func(c int) error { return callers[c].write() })
	})
	b.Run("Read", func(b *testing.B) {
		runBlocks(b, len(callers), func(c int) error { return callers[c].read() })
	})
}

func BenchmarkBlockCluster(b *testing.B) {
	// 96 MiB per server, the benchmark's, and like it fresh keys for every
	// block written: after 18 blocks each write evicts.
	l, err := LaunchLocal(roofPeers, memcached.Config{MemLimit: 96 << 20})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	c, err := New(l.Addrs(), Options{Replicas: 2})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	callers := runtime.GOMAXPROCS(0)
	items := make([][]*mcclient.Item, callers)
	keys := make([][]string, callers) // of the block written last
	written := make([]int, callers)
	for i := range items {
		keys[i] = make([]string, roofChunks)
		for j := 0; j < roofChunks; j++ {
			items[i] = append(items[i], &mcclient.Item{Value: make([]byte, roofChunkBytes)})
		}
	}
	set := func(i int) error {
		written[i]++
		for j, it := range items[i] {
			keys[i][j] = fmt.Sprintf("blk-%d-%d-%d", i, written[i], j)
			it.Key = keys[i][j]
		}
		failed, err := c.SetMulti(items[i])
		if err == nil && len(failed) > 0 {
			err = fmt.Errorf("setmulti: %d chunks failed", len(failed))
		}
		return err
	}
	b.Run("SetMulti", func(b *testing.B) { runBlocks(b, callers, set) })
	b.Run("GetMulti", func(b *testing.B) {
		for i := range items {
			if err := set(i); err != nil {
				b.Fatal(err)
			}
		}
		runBlocks(b, callers, func(i int) error {
			got, err := c.GetMulti(keys[i])
			if err == nil && len(got) != roofChunks {
				err = fmt.Errorf("getmulti: %d of %d chunks", len(got), roofChunks)
			}
			return err
		})
	})
}
