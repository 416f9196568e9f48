// Package hashring implements ketama-style consistent hashing with virtual
// nodes. Memcached deployments use client-side consistent hashing to
// partition the key space across servers; the burst buffer uses this ring
// to spread HDFS blocks over the RDMA-Memcached server pool so that adding
// or removing a server moves only a bounded fraction of keys.
package hashring

import (
	"cmp"
	"slices"
	"sort"
	"strconv"
)

// DefaultReplicas is the default number of virtual points per node.
const DefaultReplicas = 160

// Ring is a consistent-hash ring. The zero value is not usable; call New.
type Ring struct {
	replicas int
	points   []point // sorted by hash
	fresh    []point // Add's scratch: the new node's points, reused
	nodes    map[string]struct{}
}

type point struct {
	hash uint64
	node string
}

// New returns an empty ring with the given number of virtual points per
// node (<= 0 selects DefaultReplicas).
func New(replicas int) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	return &Ring{replicas: replicas, nodes: make(map[string]struct{})}
}

// FNV-1a, 64 bit.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnvAdd folds s into the FNV-1a state h.
func fnvAdd[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// mix is the splitmix64 finalizer. FNV alone mixes short, similar strings
// (node labels with a vnode suffix) poorly; the finalizer restores
// avalanche so virtual points spread uniformly around the ring.
func mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func hashOf(s string) uint64 { return mix(fnvAdd(fnvOffset, s)) }

// Add inserts a node. Adding an existing node is a no-op. Virtual point i
// of a node hashes the label "node#i"; the node's points are sorted on
// their own and merged into the ring in one pass, so building a ring of n
// nodes costs n linear merges, not n full sorts.
func (r *Ring) Add(node string) {
	if _, ok := r.nodes[node]; ok {
		return
	}
	r.nodes[node] = struct{}{}
	prefix := fnvAdd(fnvAdd(fnvOffset, node), "#")
	fresh := r.fresh[:0]
	var digits [20]byte
	for i := 0; i < r.replicas; i++ {
		h := fnvAdd(prefix, strconv.AppendInt(digits[:0], int64(i), 10))
		fresh = append(fresh, point{hash: mix(h), node: node})
	}
	r.fresh = fresh
	slices.SortFunc(fresh, func(a, b point) int { return cmp.Compare(a.hash, b.hash) })
	// Merge from the back, in place: grow the ring by the new points' room
	// and fill it from the largest hash down.
	i := len(r.points) - 1
	r.points = append(r.points, fresh...)
	for j, k := len(fresh)-1, len(r.points)-1; j >= 0; k-- {
		if i >= 0 && r.points[i].hash > fresh[j].hash {
			r.points[k] = r.points[i]
			i--
		} else {
			r.points[k] = fresh[j]
			j--
		}
	}
}

// Remove deletes a node and all its virtual points. Removing an absent
// node is a no-op.
func (r *Ring) Remove(node string) {
	if _, ok := r.nodes[node]; !ok {
		return
	}
	delete(r.nodes, node)
	keep := r.points[:0]
	for _, p := range r.points {
		if p.node != node {
			keep = append(keep, p)
		}
	}
	r.points = keep
}

// Len returns the number of nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Nodes returns the node names in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.nodes))
	for n := range r.nodes {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Get returns the node owning key, or "" if the ring is empty.
func (r *Ring) Get(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	return r.points[r.search(hashOf(key))].node
}

// GetN returns up to n distinct nodes for key, in ring order starting from
// the owner — the natural replica set for the key.
func (r *Ring) GetN(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	idx := r.search(hashOf(key))
	for i := 0; len(out) < n && i < len(r.points); i++ {
		p := r.points[(idx+i)%len(r.points)]
		if _, dup := seen[p.node]; dup {
			continue
		}
		seen[p.node] = struct{}{}
		out = append(out, p.node)
	}
	return out
}

// Group partitions keys by owning node, preserving input order within each
// node's slice. It is the batching front-end for multi-get fan-out: group
// once, then issue one GetMulti per server instead of a round-trip per key.
// An empty ring returns nil.
func (r *Ring) Group(keys []string) map[string][]string {
	if len(r.points) == 0 || len(keys) == 0 {
		return nil
	}
	out := make(map[string][]string, len(r.nodes))
	for _, k := range keys {
		node := r.points[r.search(hashOf(k))].node
		out[node] = append(out[node], k)
	}
	return out
}

// GroupN partitions keys by replica set: each key is assigned to its
// primary plus the next n-1 distinct successors on the ring (the same set
// GetN returns), and the result maps every node to the keys it replicates,
// preserving input order within each node's slice. It is the batching
// front-end for replicated fan-out — the cluster client uses it to turn a
// multi-set into one SetMulti per server, and the launcher uses it to
// enumerate which servers must hold which keys for read repair. With n <=
// 1 it degenerates to Group. An empty ring returns nil.
func (r *Ring) GroupN(keys []string, n int) map[string][]string {
	if len(r.points) == 0 || len(keys) == 0 {
		return nil
	}
	if n <= 1 {
		return r.Group(keys)
	}
	if n > len(r.nodes) {
		n = len(r.nodes)
	}
	out := make(map[string][]string, len(r.nodes))
	seen := make(map[string]struct{}, n)
	for _, k := range keys {
		clear(seen)
		idx := r.search(hashOf(k))
		found := 0
		for i := 0; found < n && i < len(r.points); i++ {
			p := r.points[(idx+i)%len(r.points)]
			if _, dup := seen[p.node]; dup {
				continue
			}
			seen[p.node] = struct{}{}
			out[p.node] = append(out[p.node], k)
			found++
		}
	}
	return out
}

// search finds the index of the first point with hash >= h (wrapping).
func (r *Ring) search(h uint64) int {
	idx := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if idx == len(r.points) {
		return 0
	}
	return idx
}
