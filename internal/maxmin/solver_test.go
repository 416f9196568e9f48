package maxmin

// The oracle here is the full re-solve both netsim engines used to carry
// in production code behind reference-mode setters: water-fill every
// active entity, in Seq order, on every event. It shares no code with
// the Solver (its link state lives in a map), only the arithmetic: the
// same float operations in the same order, which is what makes the
// comparison exact to the bit. Tests are named *Stress so `make stress`
// runs them under the race detector.

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

type owner struct{ id int }

type (
	link   = Link[*owner]
	entity = Entity[*owner]
)

// fullResolve returns the max-min rate of every entity in es, computed
// from scratch over all of them at once.
func fullResolve(es []*entity) map[*entity]float64 {
	es = append([]*entity(nil), es...)
	sort.Slice(es, func(i, j int) bool { return es[i].Seq < es[j].Seq })
	type state struct {
		remCap float64
		n      int
	}
	st := make(map[*link]*state)
	var order []*link // first appearance in Seq order: the tie-break
	for _, e := range es {
		for _, l := range []*link{e.A, e.B} {
			if st[l] == nil {
				st[l] = &state{remCap: l.Cap}
				order = append(order, l)
			}
			st[l].n += e.Weight
		}
	}
	rates := make(map[*entity]float64, len(es))
	for len(rates) < len(es) {
		var bottleneck *link
		share := math.Inf(1)
		for _, l := range order {
			if s := st[l]; s.n > 0 {
				if sh := s.remCap / float64(s.n); sh < share {
					share, bottleneck = sh, l
				}
			}
		}
		if bottleneck == nil {
			break
		}
		for _, e := range es {
			if _, done := rates[e]; done || (e.A != bottleneck && e.B != bottleneck) {
				continue
			}
			rates[e] = share
			for _, l := range []*link{e.A, e.B} {
				s := st[l]
				s.remCap -= share * float64(e.Weight)
				if s.remCap < 0 {
					s.remCap = 0
				}
				s.n -= e.Weight
			}
		}
	}
	return rates
}

// fabric is a random link set plus a solver over it.
type fabric struct {
	links  []*link
	solver Solver[*owner]
	nextID int
}

func newFabric(rng *rand.Rand, nlinks int) *fabric {
	fb := &fabric{}
	caps := []float64{125e6, 1.25e9, 3e9, 6e9, 24e9}
	for i := 0; i < nlinks; i++ {
		fb.links = append(fb.links, &link{Cap: caps[rng.Intn(len(caps))]})
	}
	return fb
}

func (fb *fabric) add(a, b *link, weight int) *entity {
	fb.nextID++
	o := &owner{id: fb.nextID}
	e := &entity{Owner: o, A: a, B: b, Weight: weight}
	fb.solver.Add(e)
	return e
}

func (fb *fabric) randomPair(rng *rand.Rand) (a, b *link) {
	i := rng.Intn(len(fb.links))
	j := rng.Intn(len(fb.links) - 1)
	if j >= i {
		j++
	}
	return fb.links[i], fb.links[j]
}

// checkComponent verifies what Resolve promises about its return value.
func checkComponent(t *testing.T, comp []*entity, links int, before map[*entity]float64) {
	t.Helper()
	distinct := make(map[*link]bool)
	for i, e := range comp {
		if i > 0 && comp[i-1].Seq >= e.Seq {
			t.Fatalf("component not in Seq order at %d: %d then %d", i, comp[i-1].Seq, e.Seq)
		}
		if e.PrevRate != before[e] {
			t.Fatalf("entity %d: PrevRate %g, rate before the resolve was %g", e.Owner.id, e.PrevRate, before[e])
		}
		distinct[e.A], distinct[e.B] = true, true
	}
	if links != len(distinct) {
		t.Fatalf("Resolve reported %d links water-filled, component spans %d", links, len(distinct))
	}
}

func TestIncrementalMatchesFullResolveStress(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// Few links: components merge and split; many: mostly disjoint.
		fb := newFabric(rng, []int{6, 12, 40}[seed%3])
		var untouched int
		for ev := 0; ev < 600; ev++ {
			active := fb.solver.Active()
			before := make(map[*entity]float64, len(active))
			for _, e := range active {
				before[e] = e.Rate
			}
			var a, b *link
			switch k := rng.Intn(10); {
			case k < 4 || len(active) == 0: // arrival
				a, b = fb.randomPair(rng)
				e := fb.add(a, b, 1+rng.Intn(4))
				before[e] = 0
			case k < 7: // departure
				e := active[rng.Intn(len(active))]
				a, b = e.A, e.B
				fb.solver.Remove(e)
				delete(before, e)
			case k < 9: // weight change (a bundle gained or lost members)
				e := active[rng.Intn(len(active))]
				a, b = e.A, e.B
				e.Weight = 1 + rng.Intn(6)
			default: // spurious re-solve from arbitrary seeds: must be a no-op
				a, b = fb.randomPair(rng)
			}
			comp, links := fb.solver.Resolve(a, b)
			checkComponent(t, comp, links, before)
			active = fb.solver.Active()
			untouched += len(active) - len(comp)
			want := fullResolve(active)
			for _, e := range active {
				if math.Float64bits(e.Rate) != math.Float64bits(want[e]) {
					t.Fatalf("seed %d event %d: entity %d (seq %d, weight %d) rate %v, full re-solve %v",
						seed, ev, e.Owner.id, e.Seq, e.Weight, e.Rate, want[e])
				}
			}
			checkCertificate(t, fb)
		}
		if untouched == 0 {
			t.Errorf("seed %d: every resolve covered every entity; the incremental path was not exercised", seed)
		}
	}
}

// checkCertificate verifies the rates are max-min fair on their own
// terms: feasible, and every entity is held back by a saturated link on
// which nobody gets more than it does — so no rate can rise without
// lowering one that is already no larger.
func checkCertificate(t *testing.T, fb *fabric) {
	t.Helper()
	const eps = 1e-9
	load := make(map[*link]float64)
	peak := make(map[*link]float64)
	for _, e := range fb.solver.Active() {
		for _, l := range []*link{e.A, e.B} {
			load[l] += e.Rate * float64(e.Weight)
			peak[l] = math.Max(peak[l], e.Rate)
		}
	}
	for l, used := range load {
		if used > l.Cap*(1+eps) {
			t.Fatalf("link of capacity %g carries %g", l.Cap, used)
		}
	}
	for _, e := range fb.solver.Active() {
		if e.Rate <= 0 {
			t.Fatalf("entity %d starved on links of positive capacity", e.Owner.id)
		}
		held := false
		for _, l := range []*link{e.A, e.B} {
			if load[l] >= l.Cap*(1-eps) && e.Rate >= peak[l]*(1-eps) {
				held = true
			}
		}
		if !held {
			t.Fatalf("entity %d at rate %g has no bottleneck: A %g/%g peak %g, B %g/%g peak %g",
				e.Owner.id, e.Rate, load[e.A], e.A.Cap, peak[e.A], load[e.B], e.B.Cap, peak[e.B])
		}
	}
}

func TestMaxMinCertificateStress(t *testing.T) {
	// The differential test certifies every intermediate state of sparse
	// fabrics; this one certifies dense ones, where most entities are
	// bottlenecked away from the first-filled link.
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		fb := newFabric(rng, 8)
		for i := 0; i < 60; i++ {
			a, b := fb.randomPair(rng)
			fb.add(a, b, 1+rng.Intn(8))
			fb.solver.Resolve(a, b)
		}
		checkCertificate(t, fb)
	}
}

func TestWeightEqualsMultiplicityStress(t *testing.T) {
	// One weight-k entity must get, per unit of weight, the very bits k
	// weight-1 entities on the same link pair get: a bundle is its
	// members. (Only the pair's own rate is compared: charging a link
	// share*k once and share k times round differently, so entities
	// frozen later may differ in the last place.)
	for seed := int64(1); seed <= 30; seed++ {
		k := 2 + int(seed%7)
		build := func(bundled bool) (pair []*entity) {
			rng := rand.New(rand.NewSource(seed))
			fb := newFabric(rng, 7)
			at := rng.Intn(20)
			for i := 0; i < 20; i++ {
				a, b := fb.randomPair(rng)
				w := 1 + rng.Intn(3)
				if i != at {
					fb.add(a, b, w)
					continue
				}
				if bundled {
					pair = append(pair, fb.add(a, b, k))
				} else {
					for j := 0; j < k; j++ {
						pair = append(pair, fb.add(a, b, 1))
					}
				}
			}
			var seeds []*link
			seeds = append(seeds, fb.links...)
			fb.solver.Resolve(seeds...)
			return pair
		}
		bundle, singles := build(true), build(false)
		for _, e := range singles {
			if math.Float64bits(e.Rate) != math.Float64bits(bundle[0].Rate) {
				t.Fatalf("seed %d: weight-%d entity rate %v, one of %d weight-1 entities %v",
					seed, k, bundle[0].Rate, k, e.Rate)
			}
		}
	}
}

func TestResolveDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fb := newFabric(rng, 10)
	for i := 0; i < 40; i++ {
		a, b := fb.randomPair(rng)
		fb.add(a, b, 1)
	}
	churn := &entity{Owner: &owner{}, A: fb.links[0], B: fb.links[1], Weight: 1}
	step := func() {
		fb.solver.Add(churn)
		fb.solver.Resolve(churn.A, churn.B)
		fb.solver.Remove(churn)
		fb.solver.Resolve(churn.A, churn.B)
	}
	step() // size the scratch
	if n := testing.AllocsPerRun(100, step); n != 0 {
		t.Errorf("arrival + departure allocated %.1f times, want 0", n)
	}
}

func TestSortBySeq(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 40; n++ {
		es := make([]*entity, n)
		for i, p := range rng.Perm(n) {
			es[i] = &entity{Seq: uint64(p + 1)}
		}
		SortBySeq(es)
		for i, e := range es {
			if e.Seq != uint64(i+1) {
				t.Fatalf("n=%d: position %d holds seq %d", n, i, e.Seq)
			}
		}
	}
}

func TestListWalkSeesExactlyTheActiveCrossers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fb := newFabric(rng, 5)
	for ev := 0; ev < 300; ev++ {
		if active := fb.solver.Active(); len(active) > 0 && rng.Intn(3) == 0 {
			fb.solver.Remove(active[rng.Intn(len(active))])
		} else {
			a, b := fb.randomPair(rng)
			fb.add(a, b, 1)
		}
		want := make(map[*link]int)
		for _, e := range fb.solver.Active() {
			want[e.A]++
			want[e.B]++
		}
		for _, l := range fb.links {
			n := 0
			for e := l.First(); e != nil; e = e.Next(l) {
				if e.A != l && e.B != l {
					t.Fatalf("event %d: entity %d listed on a link it does not cross", ev, e.Owner.id)
				}
				n++
			}
			if n != want[l] {
				t.Fatalf("event %d: link lists %d entities, %d active cross it", ev, n, want[l])
			}
		}
	}
}

// BenchmarkResolve times one arrival + departure on a rack-sized fabric
// under backlog: 42 links and ~60 weighted entities in a few large
// components, the shape fleet_overload's 17-links-per-resolve comes from.
func BenchmarkResolve(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	fb := newFabric(rng, 42)
	for i := 0; i < 60; i++ {
		a, l := fb.randomPair(rng)
		fb.add(a, l, 1+rng.Intn(50))
	}
	churn := make([]*entity, 64)
	for i := range churn {
		a, l := fb.randomPair(rng)
		churn[i] = &entity{Owner: &owner{}, A: a, B: l, Weight: 1 + rng.Intn(50)}
	}
	var links int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := churn[i%len(churn)]
		fb.solver.Add(e)
		_, n := fb.solver.Resolve(e.A, e.B)
		links += n
		fb.solver.Remove(e)
		fb.solver.Resolve(e.A, e.B)
	}
	b.ReportMetric(float64(links)/float64(b.N), "links/arrival")
}
