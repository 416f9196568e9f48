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
// solver keeps its active set in arrival Seq order (Add appends, Remove
// binary-searches and shifts), so the BFS only marks the component and
// a walk of the active set collects it already in Seq order — no sort.
// Links therefore enter the bottleneck scan in the same first-appearance
// order a full re-solve over all entities would use, ties break on the
// earliest link either way, and the rates are bit-identical to the full
// re-solve's (solver_test.go holds that re-solve as the oracle). Rates
// are a function of the final entity set alone, so an owner may apply
// several events and then Resolve once, seeded with all their links.
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
	active  []*Entity[O] // ascending Seq: Add appends, Remove shifts
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
	s.active = append(s.active, e)
}

// Remove deactivates e: a binary search by Seq and a shift of the
// entities that arrived after it. It does not solve: follow with
// Resolve(e.A, e.B) so the entities that shared its links speed up.
func (s *Solver[O]) Remove(e *Entity[O]) {
	e.A.detach(e)
	e.B.detach(e)
	i := s.search(e.Seq)
	copy(s.active[i:], s.active[i+1:])
	last := len(s.active) - 1
	s.active[last] = nil
	s.active = s.active[:last]
}

// search returns the position of the first active entity with Seq >= seq.
func (s *Solver[O]) search(seq uint64) int {
	lo, hi := 0, len(s.active)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.active[mid].Seq < seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Active returns the active entities in ascending Seq (arrival) order.
// The slice is the solver's own: read it, don't keep it across Add or
// Remove.
func (s *Solver[O]) Active() []*Entity[O] { return s.active }

// Resolve recomputes the shares of every active entity transitively
// connected to the seed links and returns that component in Seq order,
// with the number of links it water-filled. Each returned entity has
// PrevRate set to its rate on entry and Rate to its new share. The
// slice is scratch, valid until the next Resolve or Crossing. Seeds may
// repeat.
func (s *Solver[O]) Resolve(seeds ...*Link[O]) (comp []*Entity[O], links int) {
	s.compGen++
	gen := s.compGen
	s.bfs = s.bfs[:0]
	for _, l := range seeds {
		if l.compGen != gen {
			l.compGen = gen
			s.bfs = append(s.bfs, l)
		}
	}
	n, first := 0, uint64(math.MaxUint64)
	for i := 0; i < len(s.bfs); i++ {
		l := s.bfs[i]
		for e := l.head; e != nil; e = e.Next(l) {
			if e.compGen == gen {
				continue
			}
			e.compGen = gen
			n++
			first = min(first, e.Seq)
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
	s.collect(gen, n, first)
	return s.comp, s.waterFill(s.comp)
}

// Crossing returns the active entities crossing any of links, in Seq
// order. Like Resolve's component, the slice is scratch, valid until
// the next Resolve or Crossing.
func (s *Solver[O]) Crossing(links ...*Link[O]) []*Entity[O] {
	s.compGen++
	gen := s.compGen
	n, first := 0, uint64(math.MaxUint64)
	for _, l := range links {
		for e := l.head; e != nil; e = e.Next(l) {
			if e.compGen != gen {
				e.compGen = gen
				n++
				first = min(first, e.Seq)
			}
		}
	}
	s.collect(gen, n, first)
	return s.comp
}

// collect gathers the n active entities stamped gen into s.comp in Seq
// order: a walk of the Seq-ordered active set from the earliest of them
// (whose Seq is first) that stops at the last one, so the order costs no
// sort.
func (s *Solver[O]) collect(gen uint64, n int, first uint64) {
	s.comp = s.comp[:0]
	if n == 0 {
		return
	}
	for _, e := range s.active[s.search(first):] {
		if e.compGen == gen {
			s.comp = append(s.comp, e)
			if len(s.comp) == n {
				return
			}
		}
	}
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
