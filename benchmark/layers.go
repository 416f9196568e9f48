package main

import (
	"bytes"
	"fmt"
	"time"

	"hbb/internal/hashring"
	"hbb/internal/memcached"
	"hbb/internal/memcached/binproto"
	"hbb/internal/memcached/mcclient"
	"hbb/internal/memcached/mccluster"
)

type replayOp struct {
	key string
	set bool
}

// replay runs one stream of key-value ops against one layer of the socket
// tier at a time. Each layer is one span, and its metric is the span's
// length over the ops it ran: the calls are tens of nanoseconds, too short
// to time one by one.
type replay struct {
	sz       *sizes
	tr       *tracer
	root     int32
	m        map[string]float64
	addrs    []string // the cluster's servers, for the ring
	keys     []string // stored in the layer before the replay, so GETs hit
	ops      []replayOp
	value    []byte
	memLimit int64
	perOpNS  map[string]float64
}

// timed runs fn as the span name and records its length over n ops.
func (r *replay) timed(name string, n int, fn func() error) error {
	id := r.tr.begin(name, r.root)
	start := time.Now()
	err := fn()
	ns := float64(time.Since(start))
	r.tr.end(id)
	if r.perOpNS == nil {
		r.perOpNS = make(map[string]float64)
	}
	r.perOpNS[name] = ns / float64(max(n, 1))
	return err
}

// inMemory replays the ops against the engine, the codec, the ring and the
// sketch. None of them can fail on these inputs except by a bug, and a
// failure would show as a wrong layer time, so errors are not collected.
func (r *replay) inMemory() {
	eng := memcached.NewSharded(memcached.Config{MemLimit: r.memLimit})
	for _, k := range r.keys {
		eng.Set(memcached.Item{Key: k, Value: r.value})
	}
	r.timed("layer.engine", len(r.ops), func() error {
		for _, op := range r.ops {
			if op.set {
				eng.Set(memcached.Item{Key: op.key, Value: r.value})
			} else {
				eng.Get(op.key)
			}
		}
		return nil
	})

	// One op through the codec is its request and its response, each
	// encoded with AppendFrame and decoded with ReadFrame.
	var wire, body []byte
	var rd bytes.Reader
	var decoded binproto.Frame
	trip := func(f *binproto.Frame) {
		wire, _ = binproto.AppendFrame(wire[:0], f)
		rd.Reset(wire)
		body, _ = binproto.ReadFrame(&rd, &decoded, body)
	}
	setExtras, getExtras := binproto.SetExtras(0, 0), binproto.GetExtras(0)
	r.timed("layer.codec", len(r.ops), func() error {
		for i, op := range r.ops {
			key := []byte(op.key)
			if op.set {
				trip(&binproto.Frame{Magic: binproto.MagicRequest, Op: binproto.OpSet, Opaque: uint32(i), Key: key, Extras: setExtras, Value: r.value})
				trip(&binproto.Frame{Magic: binproto.MagicResponse, Op: binproto.OpSet, Opaque: uint32(i), CAS: uint64(i)})
			} else {
				trip(&binproto.Frame{Magic: binproto.MagicRequest, Op: binproto.OpGet, Opaque: uint32(i), Key: key})
				trip(&binproto.Frame{Magic: binproto.MagicResponse, Op: binproto.OpGet, Opaque: uint32(i), Extras: getExtras, Value: r.value})
			}
		}
		return nil
	})

	ring := hashring.New(0)
	for _, a := range r.addrs {
		ring.Add(a)
	}
	r.timed("layer.ring", len(r.ops), func() error {
		for _, op := range r.ops {
			ring.GetN(op.key, 2)
		}
		return nil
	})

	// The cluster offers GETs to its sketch, sized at twice the front cache.
	sketch := mccluster.NewSpaceSaver(8192)
	gets := 0
	for _, op := range r.ops {
		if !op.set {
			gets++
		}
	}
	r.timed("layer.sketch", gets, func() error {
		for _, op := range r.ops {
			if !op.set {
				sketch.Offer(op.key)
			}
		}
		return nil
	})
}

// oneClient runs fn with one mcclient.Client connected to one fresh
// mcserver, the pair under every cluster operation.
func (r *replay) oneClient(fn func(cl *mcclient.Client) error) error {
	var bed kvBed
	defer bed.close()
	srv, addr, err := bed.startServer(r.sz.kvProbeAddr, r.memLimit)
	if err != nil {
		return err
	}
	bed.servers = append(bed.servers, srv)
	cl, err := mcclient.Dial(addr, 2*time.Second)
	if err != nil {
		return fmt.Errorf("dial layer-replay server: %w", err)
	}
	defer cl.Close()
	return fn(cl)
}

// derive turns the layer times into the metrics, once every layer has run.
func (r *replay) derive() {
	ns := r.perOpNS
	r.m["layer.engine_ns"] = ns["layer.engine"]
	r.m["layer.codec_ns"] = ns["layer.codec"]
	r.m["layer.ring_ns"] = ns["layer.ring"]
	r.m["layer.sketch_ns"] = ns["layer.sketch"]
	r.m["layer.client_us"] = ns["layer.client"] / 1e3
	r.m["layer.cluster_us"] = ns["layer.cluster"] / 1e3
	if ns["layer.client"] > 0 {
		r.m["layer.socket_share"] = 1 - (ns["layer.engine"]+ns["layer.codec"])/ns["layer.client"]
	}
}
