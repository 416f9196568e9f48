package hashring

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func ringWith(nodes ...string) *Ring {
	r := New(0)
	for _, n := range nodes {
		r.Add(n)
	}
	return r
}

func TestEmptyRing(t *testing.T) {
	r := New(0)
	if got := r.Get("key"); got != "" {
		t.Errorf("Get on empty ring = %q", got)
	}
	if got := r.GetN("key", 3); got != nil {
		t.Errorf("GetN on empty ring = %v", got)
	}
	if r.Len() != 0 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestSingleNodeOwnsEverything(t *testing.T) {
	r := ringWith("only")
	for i := 0; i < 100; i++ {
		if got := r.Get(fmt.Sprintf("key%d", i)); got != "only" {
			t.Fatalf("key%d -> %q", i, got)
		}
	}
}

func TestGetDeterministic(t *testing.T) {
	r := ringWith("a", "b", "c")
	for i := 0; i < 50; i++ {
		k := fmt.Sprintf("key%d", i)
		first := r.Get(k)
		for j := 0; j < 5; j++ {
			if got := r.Get(k); got != first {
				t.Fatalf("%s: %q then %q", k, first, got)
			}
		}
	}
}

func TestAddIdempotent(t *testing.T) {
	r := ringWith("a", "b")
	points := len(r.points)
	r.Add("a")
	if len(r.points) != points {
		t.Error("duplicate add grew the ring")
	}
}

func TestRemove(t *testing.T) {
	r := ringWith("a", "b", "c")
	r.Remove("b")
	if r.Len() != 2 {
		t.Fatalf("len = %d", r.Len())
	}
	for i := 0; i < 200; i++ {
		if got := r.Get(fmt.Sprintf("key%d", i)); got == "b" {
			t.Fatalf("removed node still owns key%d", i)
		}
	}
	r.Remove("b") // no-op
	if r.Len() != 2 {
		t.Error("double remove changed the ring")
	}
}

func TestDistributionRoughlyUniform(t *testing.T) {
	r := ringWith("n0", "n1", "n2", "n3")
	counts := make(map[string]int)
	const keys = 20000
	for i := 0; i < keys; i++ {
		counts[r.Get(fmt.Sprintf("block-%d", i))]++
	}
	want := keys / 4
	for n, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("node %s owns %d keys, want within [%d,%d]", n, c, want/2, want*2)
		}
	}
	if len(counts) != 4 {
		t.Errorf("only %d nodes own keys", len(counts))
	}
}

func TestBoundedMovementOnNodeLoss(t *testing.T) {
	r := ringWith("n0", "n1", "n2", "n3", "n4", "n5", "n6", "n7")
	const keys = 10000
	before := make(map[string]string, keys)
	for i := 0; i < keys; i++ {
		k := fmt.Sprintf("block-%d", i)
		before[k] = r.Get(k)
	}
	r.Remove("n3")
	moved := 0
	for k, owner := range before {
		now := r.Get(k)
		if owner == "n3" {
			if now == "n3" {
				t.Fatalf("key %s still on removed node", k)
			}
			continue // these must move
		}
		if now != owner {
			moved++
		}
	}
	if moved != 0 {
		t.Errorf("%d keys not owned by the removed node moved; consistent hashing should move none", moved)
	}
}

func TestGetNDistinctAndStable(t *testing.T) {
	r := ringWith("a", "b", "c", "d", "e")
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("key%d", i)
		got := r.GetN(k, 3)
		if len(got) != 3 {
			t.Fatalf("GetN(%q,3) = %v", k, got)
		}
		seen := map[string]bool{}
		for _, n := range got {
			if seen[n] {
				t.Fatalf("GetN(%q,3) has duplicate: %v", k, got)
			}
			seen[n] = true
		}
		if got[0] != r.Get(k) {
			t.Fatalf("GetN first element %q != Get %q", got[0], r.Get(k))
		}
	}
}

func TestGetNMoreThanNodes(t *testing.T) {
	r := ringWith("a", "b")
	got := r.GetN("k", 5)
	if len(got) != 2 {
		t.Errorf("GetN capped at node count: got %v", got)
	}
}

func TestNodesSorted(t *testing.T) {
	r := ringWith("zebra", "alpha", "mid")
	got := r.Nodes()
	if fmt.Sprint(got) != "[alpha mid zebra]" {
		t.Errorf("Nodes() = %v", got)
	}
}

// Property: for any key set and any node, removing then re-adding the node
// restores the exact original assignment.
func TestPropertyRemoveAddRestores(t *testing.T) {
	f := func(seed uint8) bool {
		nodes := []string{"n0", "n1", "n2", "n3", "n4"}
		r := ringWith(nodes...)
		victim := nodes[int(seed)%len(nodes)]
		before := make(map[string]string)
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("k%d", i)
			before[k] = r.Get(k)
		}
		r.Remove(victim)
		r.Add(victim)
		for k, owner := range before {
			if r.Get(k) != owner {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGroup(t *testing.T) {
	r := New(64)
	for _, n := range []string{"s1", "s2", "s3"} {
		r.Add(n)
	}
	var keys []string
	for i := 0; i < 300; i++ {
		keys = append(keys, fmt.Sprintf("block-%d", i))
	}
	groups := r.Group(keys)
	// Every key lands in exactly one group, on the node Get reports.
	total := 0
	for node, ks := range groups {
		total += len(ks)
		for _, k := range ks {
			if owner := r.Get(k); owner != node {
				t.Fatalf("key %s grouped under %s but owned by %s", k, node, owner)
			}
		}
	}
	if total != len(keys) {
		t.Fatalf("grouped %d keys, want %d", total, len(keys))
	}
	// Input order must be preserved within each group.
	for node, ks := range groups {
		pos := -1
		for _, k := range ks {
			var idx int
			fmt.Sscanf(k, "block-%d", &idx)
			if idx <= pos {
				t.Fatalf("group %s not in input order: %v", node, ks)
			}
			pos = idx
		}
	}
	if g := New(8).Group(keys); g != nil {
		t.Errorf("empty ring Group = %v, want nil", g)
	}
	if g := r.Group(nil); g != nil {
		t.Errorf("Group(nil) = %v, want nil", g)
	}
}

func TestGroupN(t *testing.T) {
	r := New(64)
	for _, n := range []string{"s1", "s2", "s3", "s4"} {
		r.Add(n)
	}
	var keys []string
	for i := 0; i < 200; i++ {
		keys = append(keys, fmt.Sprintf("block-%d", i))
	}
	for _, tc := range []struct {
		name   string
		n      int
		copies int // expected replicas per key
	}{
		{"r1-degenerates-to-group", 1, 1},
		{"r2", 2, 2},
		{"r3", 3, 3},
		{"r-exceeds-nodes-clamps", 9, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			groups := r.GroupN(keys, tc.n)
			// Each key appears under exactly the nodes GetN reports, in
			// input order within each node's slice.
			count := make(map[string]int)
			member := make(map[string]map[string]bool)
			for node, ks := range groups {
				pos := -1
				for _, k := range ks {
					count[k]++
					if member[k] == nil {
						member[k] = make(map[string]bool)
					}
					member[k][node] = true
					var idx int
					fmt.Sscanf(k, "block-%d", &idx)
					if idx <= pos {
						t.Fatalf("group %s not in input order: %v", node, ks)
					}
					pos = idx
				}
			}
			for _, k := range keys {
				if count[k] != tc.copies {
					t.Fatalf("key %s replicated %d times, want %d", k, count[k], tc.copies)
				}
				for _, node := range r.GetN(k, tc.n) {
					if !member[k][node] {
						t.Fatalf("key %s missing from replica %s's group", k, node)
					}
				}
			}
		})
	}
	if g := New(8).GroupN(keys, 2); g != nil {
		t.Errorf("empty ring GroupN = %v, want nil", g)
	}
	if g := r.GroupN(nil, 2); g != nil {
		t.Errorf("GroupN(nil) = %v, want nil", g)
	}
}

// TestPointsMatchReferenceConstruction pins the ring table against the
// construction placement was defined by: virtual point i of a node is the
// finalized FNV-1a hash of the label "node#i" (hash/fnv over the formatted
// string), and the ring is all points sorted by hash. Add builds the same
// table a node at a time, across adds, removes and re-adds, and New builds
// it from the whole node list at once.
func TestPointsMatchReferenceConstruction(t *testing.T) {
	ref := func(nodes []string, replicas int) []point {
		var pts []point
		for _, n := range nodes {
			for i := 0; i < replicas; i++ {
				h := fnv.New64a()
				h.Write([]byte(fmt.Sprintf("%s#%d", n, i)))
				pts = append(pts, point{hash: mix(h.Sum64()), node: n})
			}
		}
		sort.Slice(pts, func(i, j int) bool { return pts[i].hash < pts[j].hash })
		return pts
	}
	var nodes []string
	for i := 0; i < 24; i++ {
		nodes = append(nodes, fmt.Sprintf("127.0.0.%d:11211", 11+i), fmt.Sprintf("bb%d", i))
	}
	for _, replicas := range []int{1, 7, DefaultReplicas} {
		r := New(replicas)
		for _, n := range nodes {
			r.Add(n)
		}
		want := ref(nodes, replicas)
		if !slices.Equal(r.points, want) {
			t.Fatalf("replicas=%d: ring table differs from the reference construction", replicas)
		}
		// New builds the same table in one pass; a repeated node counts once.
		one := New(replicas, append(slices.Clone(nodes), nodes[4], nodes[0])...)
		if !slices.Equal(one.points, want) || !slices.Equal(one.Nodes(), r.Nodes()) {
			t.Fatalf("replicas=%d: the one-pass ring differs from the ring Add built", replicas)
		}
		r.Remove(nodes[3])
		r.Remove(nodes[10])
		r.Add(nodes[3])
		left := slices.Delete(slices.Clone(nodes), 10, 11)
		if want := ref(left, replicas); !slices.Equal(r.points, want) {
			t.Fatalf("replicas=%d: ring table differs after remove and re-add", replicas)
		}
	}
	h := fnv.New64a()
	h.Write([]byte("some/key"))
	if got, want := hashOf("some/key"), mix(h.Sum64()); got != want {
		t.Errorf("hashOf = %x, want %x", got, want)
	}
}

// mergeAdd is how Add built a ring before New built it in one pass: the new
// node's points sorted on their own, then merged in from the back, so that
// of two equal hashes the point already in the ring stays first. It is the
// oracle for the order of equal hashes.
func mergeAdd(ring, fresh []point) []point {
	fresh = slices.Clone(fresh)
	slices.SortFunc(fresh, func(a, b point) int { return cmp.Compare(a.hash, b.hash) })
	i := len(ring) - 1
	ring = append(ring, fresh...)
	for j, k := len(fresh)-1, len(ring)-1; j >= 0; k-- {
		if i >= 0 && ring[i].hash > fresh[j].hash {
			ring[k] = ring[i]
			i--
		} else {
			ring[k] = fresh[j]
			j--
		}
	}
	return ring
}

// TestEqualHashesKeepNodeOrder forces ties: eight nodes' points take hashes
// from a range of four. The one sort New and Add end with orders them as
// the merging construction did, the earlier node's point first, whether it
// sorts all nodes' points at once or after each node's.
func TestEqualHashesKeepNodeOrder(t *testing.T) {
	var all, each, merged []point
	for n := 0; n < 8; n++ {
		var pts []point
		for i := 0; i < 16; i++ {
			pts = append(pts, point{hash: uint64(n*5+i*3) % 4, node: fmt.Sprintf("node%d", n)})
		}
		all = append(all, pts...)
		each = append(each, pts...)
		sortPoints(each)
		merged = mergeAdd(merged, pts)
	}
	sortPoints(all)
	if !slices.Equal(all, merged) || !slices.Equal(each, merged) {
		t.Fatalf("equal hashes out of node order:\none pass %v\nby node  %v\nmerged   %v", all, each, merged)
	}
}

// TestSortPointsIsStable sorts points whose hashes repeat across many
// top bytes, so ties fall in every bucket and buckets hold many points,
// against the standard library's stable sort.
func TestSortPointsIsStable(t *testing.T) {
	for _, n := range []int{2, 3, 100, 5000} {
		var pts []point
		for i := 0; i < n; i++ {
			h := mix(uint64(i%37)) & 0xff000000000000ff
			pts = append(pts, point{hash: h, node: fmt.Sprint(i)})
		}
		want := slices.Clone(pts)
		slices.SortStableFunc(want, func(a, b point) int { return cmp.Compare(a.hash, b.hash) })
		sortPoints(pts)
		if !slices.Equal(pts, want) {
			t.Fatalf("%d points: order differs from the stable sort", n)
		}
	}
}

// BenchmarkNew builds a 16-node ring at the default replica count, the
// construction every burst-buffer instance pays once.
func BenchmarkNew(b *testing.B) {
	var nodes []string
	for i := 0; i < 16; i++ {
		nodes = append(nodes, fmt.Sprintf("bb%d", i))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		New(0, nodes...)
	}
}
