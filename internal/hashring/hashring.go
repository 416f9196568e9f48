// Package hashring implements ketama-style consistent hashing with virtual
// nodes. Memcached deployments use client-side consistent hashing to
// partition the key space across servers; the burst buffer uses this ring
// to spread HDFS blocks over the RDMA-Memcached server pool so that adding
// or removing a server moves only a bounded fraction of keys.
package hashring

import (
	"sort"
	"strconv"
)

// DefaultReplicas is the default number of virtual points per node.
const DefaultReplicas = 160

// Ring is a consistent-hash ring. The zero value is not usable; call New.
type Ring struct {
	replicas int
	points   []point // sorted by hash; equal hashes in the order nodes were added
	nodes    map[string]struct{}
}

type point struct {
	hash uint64
	node string
}

// New returns a ring with the given number of virtual points per node (<= 0
// selects DefaultReplicas) holding nodes; a repeated node is held once. The
// ring is built in one pass, every node's points and then one sort, and
// equals the ring Add builds from the same nodes in the same order.
func New(replicas int, nodes ...string) *Ring {
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{replicas: replicas, nodes: make(map[string]struct{}, len(nodes))}
	r.points = make([]point, 0, len(nodes)*replicas)
	for _, n := range nodes {
		r.appendPoints(n)
	}
	sortPoints(r.points)
	return r
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

// Add inserts a node. Adding an existing node is a no-op.
func (r *Ring) Add(node string) {
	if r.appendPoints(node) {
		sortPoints(r.points)
	}
}

// appendPoints appends node's virtual points to the ring, unsorted, and
// reports whether the node is new; a node the ring holds adds nothing.
// Virtual point i of a node hashes the label "node#i".
func (r *Ring) appendPoints(node string) bool {
	if _, ok := r.nodes[node]; ok {
		return false
	}
	r.nodes[node] = struct{}{}
	prefix := fnvAdd(fnvAdd(fnvOffset, node), "#")
	var digits [20]byte
	for i := 0; i < r.replicas; i++ {
		h := fnvAdd(prefix, strconv.AppendInt(digits[:0], int64(i), 10))
		r.points = append(r.points, point{hash: mix(h), node: node})
	}
	return true
}

// sortPoints orders points by hash; of two points with equal hashes the
// one appended first, the earlier node's, stays first, whether the nodes
// came in one New or one Add at a time. It orders the points' positions,
// not the points: a counting scatter on the hash's top byte, then an
// insertion sort of each byte's bucket on the whole hash. Both steps are
// stable, so ties keep append order by construction. The order is then
// applied in place, a cycle at a time, so the scratch is one int32 a
// point. Hashes are uniform, so buckets average len/256 points.
func sortPoints(points []point) {
	n := len(points)
	if n < 2 {
		return
	}
	var at [257]int
	for _, p := range points {
		at[p.hash>>56+1]++
	}
	for d := 1; d <= 256; d++ {
		at[d] += at[d-1]
	}
	pos := make([]int32, n)
	next := at
	for i, p := range points {
		d := p.hash >> 56
		pos[next[d]] = int32(i)
		next[d]++
	}
	for d := 0; d < 256; d++ {
		bucket := pos[at[d]:at[d+1]]
		for i := 1; i < len(bucket); i++ {
			v := bucket[i]
			h := points[v].hash
			j := i
			for ; j > 0 && points[bucket[j-1]].hash > h; j-- {
				bucket[j] = bucket[j-1]
			}
			bucket[j] = v
		}
	}
	// Slot j takes the point at pos[j]; a filled slot holds -1.
	for start := range pos {
		if pos[start] < 0 {
			continue
		}
		first := points[start]
		j := start
		for {
			k := int(pos[j])
			pos[j] = -1
			if k == start {
				points[j] = first
				break
			}
			points[j] = points[k]
			j = k
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
