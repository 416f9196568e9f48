// Package maxmin is the repository's one max-min fair-share solver:
// weighted entities, each crossing two capacity links, get the rates
// progressive water filling assigns — repeatedly freeze the entities
// crossing the tightest link at that link's equal per-unit-weight share.
//
// Shares decompose over connected components of the entity/link graph:
// a rate event (arrival, departure, weight change) can only move shares
// inside the component its links belong to. Resolve therefore BFSes
// from the event's links, water-fills only what it reached, and hands
// that component back; every entity outside it keeps its rate. The
// component is ordered by arrival Seq before filling, so links enter
// the bottleneck scan in the same first-appearance order a full
// re-solve over all entities would use, ties break on the earliest
// link either way, and the rates are bit-identical to the full
// re-solve's (solver_test.go holds that re-solve as the oracle).
//
// The owner — netsim.Network for flows, netsim's per-rack fleet solver
// for counted bundles — embeds an Entity in its own record, keeps
// timers and byte accounting to itself, and after each Resolve walks
// the returned component to book progress at PrevRate and re-arm the
// entities whose Rate changed. Nothing here allocates in steady state
// and nothing is safe for concurrent use: a Solver and its links
// belong to one simulation shard.
package maxmin

import "math"

// Link is one capacity constraint: a NIC direction or a rack trunk.
// Set Cap before the first entity crosses it; the zero value of every
// other field is ready, so owners may hold links inline or by pointer.
// A link's stamps are relative to one Solver: every entity crossing it
// must be active in the same one. O is the owner's record type, a
// pointer (*netsim.Flow), which the solver stores and never looks at.
type Link[O any] struct {
	Cap float64 // bytes/sec

	// remCap/n are water-filling scratch, valid only while gen matches
	// the solver's current fill; compGen marks links the current
	// component BFS already visited; head anchors the intrusive list of
	// active entities crossing the link (membership only — Seq, not
	// list position, orders the solve).
	gen     uint64
	remCap  float64
	n       int
	compGen uint64
	head    *Entity[O]
}

// First returns one active entity crossing l, or nil; continue the walk
// with Entity.Next(l). The order is unspecified.
func (l *Link[O]) First() *Entity[O] { return l.head }

// Entity is one solver participant: Weight identical flows over the
// link pair (A, B). The owner embeds it in its own record, points Owner
// back at that record, sets A, B (distinct) and Weight (positive) before
// Solver.Add, and may change Weight while active, followed by a Resolve
// seeded with A and B.
type Entity[O any] struct {
	Owner  O
	A, B   *Link[O]
	Weight int

	// Rate is the per-unit-weight fair share in bytes/sec; PrevRate is
	// what it was when the latest Resolve that reached this entity
	// began. Seq is the arrival order Add assigned.
	Rate, PrevRate float64
	Seq            uint64

	onA, onB hook[O] // list slots on A's and B's lists
	compGen  uint64
	idx      int // position in Solver.active
	frozen   bool
}

// hook is an entity's slot in one link's intrusive list.
type hook[O any] struct{ next, prev *Entity[O] }

// hook returns e's slot on l's list; l must be e.A or e.B.
func (e *Entity[O]) hook(l *Link[O]) *hook[O] {
	if l == e.A {
		return &e.onA
	}
	return &e.onB
}

// Next returns the entity after e on l's list; l must be e.A or e.B.
func (e *Entity[O]) Next(l *Link[O]) *Entity[O] { return e.hook(l).next }

func (l *Link[O]) attach(e *Entity[O]) {
	*e.hook(l) = hook[O]{next: l.head}
	if l.head != nil {
		l.head.hook(l).prev = e
	}
	l.head = e
}

func (l *Link[O]) detach(e *Entity[O]) {
	h := e.hook(l)
	if h.prev != nil {
		h.prev.hook(l).next = h.next
	} else {
		l.head = h.next
	}
	if h.next != nil {
		h.next.hook(l).prev = h.prev
	}
	*h = hook[O]{}
}

// Solver owns the active entity set and the scratch of one independent
// fabric (a Network, or one fleet rack).
type Solver[O any] struct {
	active  []*Entity[O] // arbitrary order; idx tracks positions
	seq     uint64
	gen     uint64
	compGen uint64
	comp    []*Entity[O]
	bfs     []*Link[O]
	fill    []*Link[O]
}

// Add activates e at rate zero with the next arrival Seq. It does not
// solve: follow with Resolve(e.A, e.B).
func (s *Solver[O]) Add(e *Entity[O]) {
	s.seq++
	e.Seq = s.seq
	e.Rate, e.PrevRate = 0, 0
	e.A.attach(e)
	e.B.attach(e)
	e.idx = len(s.active)
	s.active = append(s.active, e)
}

// Remove deactivates e in O(1). It does not solve: follow with
// Resolve(e.A, e.B) so the entities that shared its links speed up.
func (s *Solver[O]) Remove(e *Entity[O]) {
	e.A.detach(e)
	e.B.detach(e)
	last := len(s.active) - 1
	if e.idx != last {
		moved := s.active[last]
		s.active[e.idx] = moved
		moved.idx = e.idx
	}
	s.active[last] = nil
	s.active = s.active[:last]
}

// Active returns the active entities in arbitrary order. The slice is
// the solver's own: read it, don't keep it across Add or Remove.
func (s *Solver[O]) Active() []*Entity[O] { return s.active }

// Resolve recomputes the shares of every active entity transitively
// connected to the seed links and returns that component in Seq order,
// with the number of links it water-filled. Each returned entity has
// PrevRate set to its rate on entry and Rate to its new share. The
// slice is scratch, valid until the next Resolve.
func (s *Solver[O]) Resolve(seeds ...*Link[O]) (comp []*Entity[O], links int) {
	s.compGen++
	gen := s.compGen
	s.bfs = s.bfs[:0]
	s.comp = s.comp[:0]
	for _, l := range seeds {
		if l.compGen != gen {
			l.compGen = gen
			s.bfs = append(s.bfs, l)
		}
	}
	for i := 0; i < len(s.bfs); i++ {
		l := s.bfs[i]
		for e := l.head; e != nil; e = e.Next(l) {
			if e.compGen == gen {
				continue
			}
			e.compGen = gen
			s.comp = append(s.comp, e)
			o := e.A
			if o == l {
				o = e.B
			}
			if o.compGen != gen {
				o.compGen = gen
				s.bfs = append(s.bfs, o)
			}
		}
	}
	SortBySeq(s.comp)
	return s.comp, s.waterFill(s.comp)
}

// waterFill assigns max-min shares to es, which must be closed under
// link sharing and in Seq order. It reports how many links it filled.
func (s *Solver[O]) waterFill(es []*Entity[O]) int {
	if len(es) == 0 {
		return 0
	}
	s.gen++
	gen := s.gen
	s.fill = s.fill[:0]
	for _, e := range es {
		e.PrevRate = e.Rate
		e.frozen = false
		for _, l := range [2]*Link[O]{e.A, e.B} {
			if l.gen != gen {
				l.gen = gen
				l.remCap = l.Cap
				l.n = 0
				s.fill = append(s.fill, l)
			}
			l.n += e.Weight
		}
	}
	for unfrozen := len(es); unfrozen > 0; {
		var bottleneck *Link[O]
		share := math.Inf(1)
		for _, l := range s.fill {
			if l.n == 0 {
				continue
			}
			// Strict < keeps ties on the earliest link in arrival order —
			// deterministic across runs and shard counts.
			if sh := l.remCap / float64(l.n); sh < share {
				share, bottleneck = sh, l
			}
		}
		if bottleneck == nil {
			break
		}
		for _, e := range es {
			if e.frozen || (e.A != bottleneck && e.B != bottleneck) {
				continue
			}
			e.frozen = true
			e.Rate = share
			unfrozen--
			used := share * float64(e.Weight)
			for _, l := range [2]*Link[O]{e.A, e.B} {
				l.remCap -= used
				if l.remCap < 0 {
					l.remCap = 0
				}
				l.n -= e.Weight
			}
		}
	}
	return len(s.fill)
}

// SortBySeq orders entities by arrival Seq in place (heapsort: zero
// allocations, O(n log n) worst case). Seq values are unique per
// solver, so the order is total and deterministic. It is hand-rolled
// because slices.SortFunc, whose comparator is not inlined, measured 8%
// off fleet_overload's ops_per_s, where this sort is ~7% of the run.
func SortBySeq[O any](es []*Entity[O]) {
	n := len(es)
	for i := n/2 - 1; i >= 0; i-- {
		siftSeq(es, i, n)
	}
	for i := n - 1; i > 0; i-- {
		es[0], es[i] = es[i], es[0]
		siftSeq(es, 0, i)
	}
}

func siftSeq[O any](es []*Entity[O], i, n int) {
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if c+1 < n && es[c+1].Seq > es[c].Seq {
			c++
		}
		if es[i].Seq >= es[c].Seq {
			return
		}
		es[i], es[c] = es[c], es[i]
		i = c
	}
}
