package main

import (
	"fmt"
	"sync"
	"time"

	"hbb/internal/memcached/mcclient"
)

// kvBlock is kv_block_stream: per pass every caller writes blkBlocks
// blocks of blkChunks chunks, one SetMulti per block, and after all have
// written reads them back, one GetMulti per block. Keys are fresh in every
// pass, so once the engines are full each pass evicts an earlier one.
type kvBlock struct {
	sz       *sizes
	bed      *kvBed
	callers  []*blkCaller
	pass     int
	writeMBs []float64 // per pass, user MB over the write phase's wall time
	readMBs  []float64
	base     kvTotals
}

type blkCaller struct {
	tally       // in chunks
	w           *kvBlock
	id          int
	items       []*mcclient.Item // one block, reused; the values are blkChunks distinct buffers
	keys        [][]string       // this pass's keys, per block
	write, read hist             // per block batch
}

func setupKVBlock(sz *sizes, _ int64) (instance, error) {
	w := &kvBlock{sz: sz}
	for id := 0; id < sz.blkCallers; id++ {
		c := &blkCaller{w: w, id: id, keys: make([][]string, sz.blkBlocks)}
		payload := make([]byte, sz.blkChunks*sz.blkChunkBytes)
		for i := 0; i < sz.blkChunks; i++ {
			c.items = append(c.items, &mcclient.Item{Value: payload[i*sz.blkChunkBytes : (i+1)*sz.blkChunkBytes]})
		}
		for b := range c.keys {
			c.keys[b] = make([]string, sz.blkChunks)
		}
		w.callers = append(w.callers, c)
	}
	var err error
	if w.bed, err = startKV(sz.kvAddrs, sz.blkMemLimit); err != nil {
		return nil, err
	}
	// The warm-up passes fill the engines, so that no timed pass touches
	// memory for the first time or runs before eviction has begun.
	for i := 0; i < sz.blkWarmPasses; i++ {
		if _, _, err := w.unit(nil, -1); err != nil {
			w.bed.close()
			return nil, err
		}
	}
	for _, c := range w.callers {
		if c.err != nil {
			w.bed.close()
			return nil, fmt.Errorf("warm-up: %w", c.err)
		}
		c.write, c.read, c.ops = hist{}, hist{}, 0
	}
	w.writeMBs, w.readMBs = nil, nil
	w.base = w.bed.totals()
	return w, nil
}

// chunkID is what a chunk's value carries besides its filler: enough to
// tell it from every other chunk of the run.
func chunkID(pass, caller, block, chunk int) (idx, ver uint32) {
	return uint32(caller<<16 | block<<8 | chunk), uint32(pass)
}

func (c *blkCaller) writeBlocks(tr *tracer, parent int32) {
	for b, keys := range c.keys {
		for i, it := range c.items {
			it.Key = keys[i]
			idx, ver := chunkID(c.w.pass, c.id, b, i)
			fillHeader(it.Value, idx, ver)
		}
		id := tr.begin("cluster.setmulti", parent)
		start := time.Now()
		failed, err := c.w.bed.cluster.SetMulti(c.items)
		c.write.record(int64(time.Since(start)))
		tr.end(id)
		c.ops += int64(len(c.items))
		if err != nil {
			c.failed += int64(len(c.items)) - 1
			c.fail(fmt.Errorf("setmulti pass %d block %d: %w", c.w.pass, b, err))
		}
		for k, e := range failed {
			c.fail(fmt.Errorf("setmulti %s: %w", k, e))
		}
	}
}

func (c *blkCaller) readBlocks(tr *tracer, parent int32) {
	size := c.w.sz.blkChunkBytes
	for b, keys := range c.keys {
		id := tr.begin("cluster.getmulti", parent)
		start := time.Now()
		got, err := c.w.bed.cluster.GetMulti(keys)
		c.read.record(int64(time.Since(start)))
		tr.end(id)
		c.ops += int64(len(keys))
		if err != nil {
			c.failed += int64(len(keys)) - 1
			c.fail(fmt.Errorf("getmulti pass %d block %d: %w", c.w.pass, b, err))
			continue
		}
		for i, k := range keys {
			idx, ver := chunkID(c.w.pass, c.id, b, i)
			it := got[k]
			if it == nil {
				c.fail(fmt.Errorf("getmulti %s: chunk missing", k))
			} else if v, ok := checkValue(it.Value, idx, size); !ok || v != ver {
				c.fail(fmt.Errorf("getmulti %s: wrong chunk (%d bytes)", k, len(it.Value)))
			}
		}
	}
}

// fillHeader stamps a chunk with its identity; the filler between the
// header and the last byte is left as it is, since checkValue reads only
// the two ends and rewriting 256 KiB per chunk would time the harness.
func fillHeader(v []byte, idx, ver uint32) {
	fillValue(v[:9], idx, ver)
	v[len(v)-1] = v[8]
}

// unit is one pass. The keys are made before the clock starts; the write
// phase and the read phase are timed apart, and the pass's wall time is
// their sum.
func (w *kvBlock) unit(tr *tracer, parent int32) (int64, time.Duration, error) {
	w.pass++
	for _, c := range w.callers {
		for b, keys := range c.keys {
			for i := range keys {
				keys[i] = fmt.Sprintf("blk:%d:%d:%d:%d", w.pass, c.id, b, i)
			}
		}
	}
	phase := func(name string, fn func(c *blkCaller, tr *tracer, parent int32)) time.Duration {
		id := tr.begin(name, parent)
		defer tr.end(id)
		var wg sync.WaitGroup
		start := time.Now()
		for _, c := range w.callers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fn(c, tr, id)
			}()
		}
		wg.Wait()
		return time.Since(start)
	}
	writeWall := phase("pass.write", (*blkCaller).writeBlocks)
	readWall := phase("pass.read", (*blkCaller).readBlocks)
	chunks := len(w.callers) * w.sz.blkBlocks * w.sz.blkChunks
	userMB := float64(chunks) * float64(w.sz.blkChunkBytes) / 1e6
	w.writeMBs = append(w.writeMBs, userMB/writeWall.Seconds())
	w.readMBs = append(w.readMBs, userMB/readWall.Seconds())
	return int64(2 * chunks), writeWall + readWall, nil
}

func (w *kvBlock) total() tally {
	var t tally
	for _, c := range w.callers {
		t.add(c.tally)
	}
	return t
}

func (w *kvBlock) report(m map[string]float64, _ map[string]string) {
	var write, read hist
	for _, c := range w.callers {
		write.merge(&c.write)
		read.merge(&c.read)
	}
	m["write_mb_per_s"] = median(w.writeMBs)
	m["read_mb_per_s"] = median(w.readMBs)
	m["blk.write_p50_ms"] = write.quantile(0.5) / 1e6
	m["blk.read_p50_ms"] = read.quantile(0.5) / 1e6
	t := w.total()
	m["fail_frac"] = frac(t.failed, t.ops)
	w.bed.reportTier(w.base, m)
}

func (w *kvBlock) finish() (int64, int64, []string, error) {
	return w.total().check([]string{
		fmt.Sprintf("every GetMulti returned all %d chunks of its block, each the chunk that was written", w.sz.blkChunks),
	})
}

// layers replays one caller's pass against each layer alone: chunk by
// chunk in memory, block by block on sockets, as the workload itself does.
func (w *kvBlock) layers(tr *tracer, m map[string]float64) error {
	c := w.callers[0]
	root := tr.begin("layers", -1)
	defer tr.end(root)
	rp := replay{sz: w.sz, tr: tr, root: root, m: m, addrs: w.bed.addrs, memLimit: w.sz.blkMemLimit, value: c.items[0].Value}
	for _, set := range []bool{true, false} {
		for _, keys := range c.keys {
			for _, k := range keys {
				rp.ops = append(rp.ops, replayOp{key: k, set: set})
			}
		}
	}
	rp.inMemory()

	chunks := len(rp.ops)
	err := rp.oneClient(func(cl *mcclient.Client) error {
		return rp.timed("layer.client", chunks, func() error {
			for _, keys := range c.keys {
				for i, it := range c.items {
					it.Key = keys[i]
				}
				if failed, err := cl.SetMulti(c.items); err != nil || len(failed) > 0 {
					return fmt.Errorf("client replay setmulti: %d rejected, %v", len(failed), err)
				}
			}
			for _, keys := range c.keys {
				if got, err := cl.GetMulti(keys); err != nil || len(got) != len(keys) {
					return fmt.Errorf("client replay getmulti: %d of %d chunks, %v", len(got), len(keys), err)
				}
			}
			return nil
		})
	})
	if err != nil {
		return err
	}
	failedBefore := c.failed
	rp.timed("layer.cluster", chunks, func() error {
		c.writeBlocks(nil, -1)
		c.readBlocks(nil, -1)
		return nil
	})
	if c.failed != failedBefore {
		return fmt.Errorf("cluster replay: %w", c.err)
	}
	rp.derive()
	return nil
}

func (w *kvBlock) close() { w.bed.close() }
