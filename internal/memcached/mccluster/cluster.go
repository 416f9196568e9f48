package mccluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"hbb/internal/hashring"
	"hbb/internal/memcached/mcclient"
)

// ErrOverload is returned when the admission gate sheds a request: the
// cluster-wide inflight count is at the GET bound (or the 2x SET bound).
// Shedding happens before any socket work, so an overloaded client costs
// the caller one atomic load, mirroring the swarm's shed-at-admission
// semantics on real connections.
var ErrOverload = errors.New("mccluster: overloaded: request shed")

// ErrNoReplicas is returned when every replica for a key is unreachable.
var ErrNoReplicas = errors.New("mccluster: no reachable replica")

// IsOverload reports whether err is an admission-control shed.
func IsOverload(err error) bool { return errors.Is(err, ErrOverload) }

// Options configures a cluster client. The zero value gives production
// defaults: 2-way replication, reconnecting connections, hot-key
// detection feeding a 4096-entry front cache with a 100ms TTL, replica
// read spreading, and read repair. The No* switches exist for A/B runs
// (the hot-key-blind baseline in BenchmarkClusterZipf disables all
// three).
type Options struct {
	// Replicas is R: each key lives on its primary plus R-1 distinct
	// ring successors. Default 2, clamped to the server count.
	Replicas int
	// DialTimeout bounds each connection attempt (default 2s).
	DialTimeout time.Duration
	// Reconnect is the per-connection transparent-reconnect policy.
	// A zero value defaults to 8 attempts, 10ms base, 500ms cap; set
	// MaxAttempts negative to disable reconnect.
	Reconnect mcclient.ReconnectPolicy
	// RedialCooldown is how long a node with a permanently-failed client
	// waits before the next lazy redial (default 250ms).
	RedialCooldown time.Duration

	// FrontCacheSize is the hot-key front cache capacity in entries
	// (default 4096), each a value of at most memcached.InlineValue bytes;
	// FrontCacheTTL bounds staleness against writers on other clients
	// (default 100ms). HotTrack is the space-saver sketch size (default 2x
	// FrontCacheSize) and HotMinHits the guaranteed count (occurrences
	// seen, not the sketch's over-estimate) at which a key counts as hot
	// (default 8).
	FrontCacheSize int
	FrontCacheTTL  time.Duration
	HotTrack       int
	HotMinHits     int

	// NoFrontCache disables the front cache, NoReadSpread pins hot-key
	// reads to the primary, NoReadRepair disables write-back of stale
	// replicas discovered on the read path.
	NoFrontCache bool
	NoReadSpread bool
	NoReadRepair bool

	// MaxInflight, when positive, is the cluster-wide admission bound:
	// GETs are shed once that many operations are outstanding, SETs only
	// at twice the bound — under overload reads degrade first, writes
	// survive longest (same policy as swarm.Config.MaxInflight).
	MaxInflight int64
}

func (o Options) withDefaults() Options {
	if o.Replicas <= 0 {
		o.Replicas = 2
	}
	if o.DialTimeout <= 0 {
		o.DialTimeout = 2 * time.Second
	}
	if o.Reconnect.MaxAttempts == 0 {
		o.Reconnect = mcclient.ReconnectPolicy{
			MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, MaxDelay: 500 * time.Millisecond,
		}
	}
	if o.RedialCooldown <= 0 {
		o.RedialCooldown = 250 * time.Millisecond
	}
	if o.FrontCacheSize <= 0 {
		o.FrontCacheSize = 4096
	}
	if o.FrontCacheTTL <= 0 {
		o.FrontCacheTTL = 100 * time.Millisecond
	}
	if o.HotTrack <= 0 {
		o.HotTrack = 2 * o.FrontCacheSize
	}
	if o.HotMinHits <= 0 {
		o.HotMinHits = 8
	}
	return o
}

// Validate reports the first configuration error.
func (o Options) Validate() error {
	if o.Replicas < 0 {
		return fmt.Errorf("mccluster: Replicas must be positive (or 0 for the default), got %d", o.Replicas)
	}
	if o.MaxInflight < 0 {
		return fmt.Errorf("mccluster: MaxInflight must be positive (or 0 for unbounded), got %d", o.MaxInflight)
	}
	return nil
}

// node is one server endpoint: its lazily-dialed client plus the redial
// cooldown that stops a dead server from being re-dialed on every
// operation once its client's bounded reconnect budget is spent.
type node struct {
	addr     string
	dialTO   time.Duration
	policy   mcclient.ReconnectPolicy
	cooldown time.Duration

	mu        sync.Mutex
	c         *mcclient.Client
	downUntil time.Time
	lastErr   error
}

// client returns the node's client, dialing lazily. During the redial
// cooldown it fails fast with a typed *mcclient.ConnError so callers move
// straight to the next replica.
func (n *node) client() (*mcclient.Client, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.c != nil {
		return n.c, nil
	}
	if time.Now().Before(n.downUntil) {
		return nil, &mcclient.ConnError{Addr: n.addr, Err: fmt.Errorf("in redial cooldown: %w", n.lastErr)}
	}
	c, err := mcclient.Dial(n.addr, n.dialTO, mcclient.WithReconnect(n.policy))
	if err != nil {
		n.lastErr = err
		n.downUntil = time.Now().Add(n.cooldown)
		return nil, &mcclient.ConnError{Addr: n.addr, Err: err}
	}
	n.c = c
	return c, nil
}

// drop discards a permanently-failed client and starts the cooldown; the
// next use after it lapses dials fresh (covering servers that come back
// after the in-client reconnect budget was exhausted).
func (n *node) drop(c *mcclient.Client) {
	n.mu.Lock()
	if n.c == c {
		n.c = nil
		n.downUntil = time.Now().Add(n.cooldown)
		n.lastErr = errors.New("previous client permanently failed")
	}
	n.mu.Unlock()
	c.Close()
}

func (n *node) close() {
	n.mu.Lock()
	c := n.c
	n.c = nil
	n.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// Cluster is the replicated cluster client. It is safe for concurrent
// use; one instance multiplexes any number of goroutines over one
// connection per server, on which concurrent callers' requests share
// writes (mcclient's group commit) and replies are routed back by opaque.
// Single-key writes go to all R replicas from the caller's own goroutine
// (fanOut); only the bulk SetMulti spawns, one goroutine per server.
type Cluster struct {
	opts  Options
	ring  *hashring.Ring
	nodes map[string]*node
	addrs []string
	reps  int

	hot       *hotTracker // nil when both front cache and spreading are off
	fc        *frontCache // nil when NoFrontCache
	repairSem chan struct{}
	rrSeq     atomic.Uint64
	inflight  atomic.Int64

	gets, sets, deletes    atomic.Int64
	spreadReads, failovers atomic.Int64
	repairs, replicaErrors atomic.Int64
	shedGets, shedSets     atomic.Int64
	hotGets                atomic.Int64
}

// New builds a cluster client over the given server addresses.
// Connections are dialed lazily, so New succeeds even while some servers
// are still coming up.
func New(addrs []string, opts Options) (*Cluster, error) {
	if len(addrs) == 0 {
		return nil, errors.New("mccluster: no server addresses")
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	c := &Cluster{
		opts:      opts,
		ring:      hashring.New(0),
		nodes:     make(map[string]*node, len(addrs)),
		repairSem: make(chan struct{}, 64),
	}
	for _, a := range addrs {
		if _, dup := c.nodes[a]; dup {
			return nil, fmt.Errorf("mccluster: duplicate server address %q", a)
		}
		c.ring.Add(a)
		c.nodes[a] = &node{
			addr: a, dialTO: opts.DialTimeout,
			policy: opts.Reconnect, cooldown: opts.RedialCooldown,
		}
		c.addrs = append(c.addrs, a)
	}
	c.reps = opts.Replicas
	if c.reps > len(addrs) {
		c.reps = len(addrs)
	}
	if !opts.NoFrontCache || !opts.NoReadSpread {
		c.hot = newHotTracker(opts.HotTrack, uint64(opts.HotMinHits))
	}
	if !opts.NoFrontCache {
		c.fc = newFrontCache(opts.FrontCacheSize, opts.FrontCacheTTL)
	}
	return c, nil
}

// Replicas returns the effective replication factor.
func (c *Cluster) Replicas() int { return c.reps }

// Addrs returns the server addresses in construction order.
func (c *Cluster) Addrs() []string { return append([]string(nil), c.addrs...) }

// ReplicasFor returns the replica set (primary first) for key.
func (c *Cluster) ReplicasFor(key string) []string { return c.ring.GetN(key, c.reps) }

// HotKeys returns up to n currently-tracked hot keys by descending count.
func (c *Cluster) HotKeys(n int) []string {
	if c.hot == nil {
		return nil
	}
	return c.hot.top(n)
}

// Close closes every server connection.
func (c *Cluster) Close() {
	for _, n := range c.nodes {
		n.close()
	}
}

// admit is the shed gate: GETs bounce at MaxInflight, SETs at twice it.
// The check-then-add is deliberately optimistic — a handful of racing
// requests may overshoot the bound, which is fine for a shed threshold.
func (c *Cluster) admit(units int64, write bool) error {
	if c.opts.MaxInflight <= 0 {
		c.inflight.Add(units)
		return nil
	}
	limit := c.opts.MaxInflight
	if write {
		limit *= 2
	}
	if c.inflight.Load()+units > limit {
		if write {
			c.shedSets.Add(units)
		} else {
			c.shedGets.Add(units)
		}
		return ErrOverload
	}
	c.inflight.Add(units)
	return nil
}

func (c *Cluster) release(units int64) { c.inflight.Add(-units) }

// opErr post-processes a per-replica failure: permanent connection errors
// drop the client so the node's cooldown-gated redial takes over.
func (c *Cluster) opErr(nd *node, cl *mcclient.Client, err error) {
	c.replicaErrors.Add(1)
	if mcclient.IsPermanent(err) {
		nd.drop(cl)
	}
}

// Get fetches key. The hot path: the key is offered to the space-saver
// sketch; hot keys are served from the front cache when fresh (no socket
// at all), otherwise read from a rotating replica so the hottest keys
// load-balance across all R server NICs. Cold keys read primary-first.
// Connection failures fail over to the next replica; a replica that
// answers "not found" while a later one has the value is repaired in the
// background (restarted servers converge without operator action).
// Returned items are shared with the front cache: treat them as
// read-only.
func (c *Cluster) Get(key string) (*mcclient.Item, error) {
	c.gets.Add(1)
	hot := false
	if c.hot != nil {
		hot = c.hot.offer(key)
	}
	now := time.Now().UnixNano()
	if hot {
		c.hotGets.Add(1)
		if c.fc != nil {
			if it, ok := c.fc.get(key, now); ok {
				return it, nil
			}
		}
	}
	if err := c.admit(1, false); err != nil {
		return nil, err
	}
	defer c.release(1)

	replicas := c.ring.GetN(key, c.reps)
	if len(replicas) == 0 {
		return nil, ErrNoReplicas
	}
	start := 0
	if hot && !c.opts.NoReadSpread && len(replicas) > 1 {
		start = int(c.rrSeq.Add(1) % uint64(len(replicas)))
		if start != 0 {
			c.spreadReads.Add(1)
		}
	}
	var stale []string // replicas that answered not-found before the hit
	var nfErr, connErr error
	failed := 0
	for i := 0; i < len(replicas); i++ {
		nd := c.nodes[replicas[(start+i)%len(replicas)]]
		cl, err := nd.client()
		if err != nil {
			c.replicaErrors.Add(1)
			if connErr == nil {
				connErr = err
			}
			failed++
			continue
		}
		it, err := cl.Get(key)
		if err == nil {
			if failed > 0 {
				c.failovers.Add(1)
			}
			if len(stale) > 0 && !c.opts.NoReadRepair {
				c.repairAsync(key, it, stale)
			}
			if hot && c.fc != nil {
				c.fc.put(key, it, now)
			}
			return it, nil
		}
		if mcclient.IsNotFound(err) {
			stale = append(stale, nd.addr)
			if nfErr == nil {
				nfErr = err
			}
			continue
		}
		if mcclient.IsConnError(err) {
			c.opErr(nd, cl, err)
			if connErr == nil {
				connErr = err
			}
			failed++
			continue
		}
		return nil, err // other protocol error: not retryable on a replica
	}
	if nfErr != nil {
		return nil, nfErr // at least one replica authoritatively missed
	}
	if connErr != nil {
		return nil, connErr
	}
	return nil, ErrNoReplicas
}

// fanOut issues one operation per replica from the caller's own goroutine,
// then waits for them in ring order: the R round-trips overlap on their
// connections with no goroutine, closure or WaitGroup per replica. each is
// called once per replica, in ring order, with the CAS and error of that
// replica's operation; connection failures have already been counted.
func (c *Cluster) fanOut(replicas []string, issue func(*mcclient.Client) *mcclient.Call, each func(cas uint64, err error)) {
	type op struct {
		cl   *mcclient.Client
		call *mcclient.Call
		err  error // the node has no client
	}
	var buf [4]op // R is 2 or 3 in practice; a larger R spills to the heap
	ops := buf[:0]
	for _, addr := range replicas {
		var o op
		if o.cl, o.err = c.nodes[addr].client(); o.err == nil {
			o.call = issue(o.cl)
		}
		ops = append(ops, o)
	}
	for i, addr := range replicas {
		if ops[i].err != nil {
			c.replicaErrors.Add(1)
			each(0, ops[i].err)
			continue
		}
		cas, err := ops[i].call.Wait()
		if err != nil && mcclient.IsConnError(err) {
			c.opErr(c.nodes[addr], ops[i].cl, err)
		}
		each(cas, err)
	}
}

// Set stores the item on all R replicas at once: it issues the R writes
// from the caller's goroutine, one per replica connection, and then waits
// for the replies. The write is acknowledged if at least one replica stored
// it; connection failures on the others are tolerated (that is what
// replication is for) and heal via read repair. A protocol rejection (too
// large, CAS conflict) is returned as-is. The returned CAS is from the
// first successful replica in ring order; CAS tokens are per-server, so
// cross-client CAS loops should pin a replica instead.
//
// The item belongs to the cluster only until Set returns: every replica's
// operation has completed by then, on the error paths too, so neither it
// nor it.Value (which a connection may write from in place, see
// mcclient.IssueSet) is referenced afterwards and the caller may reuse
// both.
func (c *Cluster) Set(it *mcclient.Item) (uint64, error) {
	c.sets.Add(1)
	if err := c.admit(1, true); err != nil {
		return 0, err
	}
	defer c.release(1)
	replicas := c.ring.GetN(it.Key, c.reps)
	acks := 0
	var cas uint64
	var connErr, rejected error
	c.fanOut(replicas,
		func(cl *mcclient.Client) *mcclient.Call { return cl.IssueSet(it) },
		func(replicaCAS uint64, err error) {
			switch {
			case err == nil:
				if acks == 0 {
					cas = replicaCAS
				}
				acks++
			case mcclient.IsConnError(err):
				if connErr == nil {
					connErr = err
				}
			case rejected == nil:
				rejected = err
			}
		})
	if c.fc != nil {
		c.fc.invalidate(it.Key)
	}
	switch {
	case rejected != nil:
		return 0, rejected // protocol rejection wins: the caller must know
	case acks > 0:
		return cas, nil
	case connErr != nil:
		return 0, connErr
	}
	return 0, ErrNoReplicas
}

// Delete removes key from every replica, issuing the R deletes at once like
// Set, and invalidates the front cache. It succeeds if any replica
// acknowledged (found or already gone); it returns not-found only when
// every reachable replica reported it.
func (c *Cluster) Delete(key string) error {
	c.deletes.Add(1)
	if err := c.admit(1, true); err != nil {
		return err
	}
	defer c.release(1)
	replicas := c.ring.GetN(key, c.reps)
	hits := 0
	var nfErr, connErr, rejected error
	c.fanOut(replicas,
		func(cl *mcclient.Client) *mcclient.Call { return cl.IssueDelete(key) },
		func(_ uint64, err error) {
			switch {
			case err == nil:
				hits++
			case mcclient.IsNotFound(err):
				if nfErr == nil {
					nfErr = err
				}
			case mcclient.IsConnError(err):
				connErr = err
			case rejected == nil:
				rejected = err
			}
		})
	if c.fc != nil {
		c.fc.invalidate(key)
	}
	switch {
	case rejected != nil:
		return rejected
	case hits > 0:
		return nil
	case nfErr != nil:
		return nfErr
	case connErr != nil:
		return connErr
	}
	return ErrNoReplicas
}

// GetMulti fetches many keys: hot keys come from the front cache, the
// rest are grouped by primary and fetched with one pipelined GetMulti per
// server; keys on unreachable servers fail over to their next replica in
// further rounds. Missing keys are absent from the result (per GetMulti
// convention); per-key read repair is the single-key path's job.
func (c *Cluster) GetMulti(keys []string) (map[string]*mcclient.Item, error) {
	c.gets.Add(int64(len(keys)))
	out := make(map[string]*mcclient.Item, len(keys))
	if len(keys) == 0 {
		return out, nil
	}
	now := time.Now().UnixNano()
	remaining := make([]string, 0, len(keys))
	hotKeys := make(map[string]bool)
	for _, k := range keys {
		if c.hot != nil && c.hot.offer(k) {
			c.hotGets.Add(1)
			hotKeys[k] = true
			if c.fc != nil {
				if it, ok := c.fc.get(k, now); ok {
					out[k] = it
					continue
				}
			}
		}
		remaining = append(remaining, k)
	}
	if len(remaining) == 0 {
		return out, nil
	}
	if err := c.admit(int64(len(remaining)), false); err != nil {
		return nil, err
	}
	defer c.release(int64(len(remaining)))

	groups := c.ring.Group(remaining)
	var lastErr error
	for round := 1; len(groups) > 0 && round <= c.reps; round++ {
		var retry []string
		for addr, ks := range groups {
			nd := c.nodes[addr]
			cl, err := nd.client()
			if err != nil {
				c.replicaErrors.Add(1)
				lastErr = err
				retry = append(retry, ks...)
				continue
			}
			items, err := cl.GetMulti(ks)
			if err != nil {
				if mcclient.IsConnError(err) {
					c.opErr(nd, cl, err)
					lastErr = err
					retry = append(retry, ks...)
					continue
				}
				return nil, err
			}
			for k, it := range items {
				out[k] = it
				if hotKeys[k] && c.fc != nil {
					c.fc.put(k, it, now)
				}
			}
		}
		groups = nil
		if len(retry) == 0 {
			break
		}
		c.failovers.Add(1)
		// Re-group the failed keys onto their round-th successor replica.
		groups = make(map[string][]string)
		for _, k := range retry {
			reps := c.ring.GetN(k, c.reps)
			if round < len(reps) {
				groups[reps[round]] = append(groups[reps[round]], k)
			}
		}
		if len(groups) == 0 && lastErr != nil && len(out) == 0 {
			return nil, lastErr
		}
	}
	return out, nil
}

// SetMulti stores many items with R-way replication: hashring.GroupN
// enumerates each key's replica set, and each server gets one pipelined
// SetMulti covering every key it replicates. The per-key error map marks
// keys that got no acknowledgment anywhere (or were rejected); as with
// Set, a key acked by at least one replica is considered stored.
func (c *Cluster) SetMulti(items []*mcclient.Item) (map[string]error, error) {
	c.sets.Add(int64(len(items)))
	failed := make(map[string]error)
	if len(items) == 0 {
		return failed, nil
	}
	if err := c.admit(int64(len(items)), true); err != nil {
		return nil, err
	}
	defer c.release(int64(len(items)))

	byKey := make(map[string]*mcclient.Item, len(items))
	keys := make([]string, len(items))
	for i, it := range items {
		keys[i] = it.Key
		byKey[it.Key] = it
	}
	groups := c.ring.GroupN(keys, c.reps)
	acks := make(map[string]int, len(items))
	rejected := make(map[string]error)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for addr, ks := range groups {
		nd := c.nodes[addr]
		wg.Add(1)
		go func(nd *node, ks []string) {
			defer wg.Done()
			cl, err := nd.client()
			if err != nil {
				c.replicaErrors.Add(1)
				return
			}
			its := make([]*mcclient.Item, len(ks))
			for i, k := range ks {
				its[i] = byKey[k]
			}
			perKey, err := cl.SetMulti(its)
			if err != nil {
				if mcclient.IsConnError(err) {
					c.opErr(nd, cl, err)
				}
				return
			}
			mu.Lock()
			for _, k := range ks {
				if e, bad := perKey[k]; bad {
					rejected[k] = e
				} else {
					acks[k]++
				}
			}
			mu.Unlock()
		}(nd, ks)
	}
	wg.Wait()
	for _, it := range items {
		if c.fc != nil {
			c.fc.invalidate(it.Key)
		}
		if e, bad := rejected[it.Key]; bad {
			failed[it.Key] = e
		} else if acks[it.Key] == 0 {
			failed[it.Key] = ErrNoReplicas
		}
	}
	return failed, nil
}

// repairAsync writes the value back to replicas that answered not-found,
// off the request path: one goroutine issues the write to all of them and
// then waits. The semaphore bounds concurrent repairs; when saturated the
// repair is skipped — the next read (or RepairKeys) will retry.
func (c *Cluster) repairAsync(key string, it *mcclient.Item, stale []string) {
	select {
	case c.repairSem <- struct{}{}:
	default:
		return
	}
	go func() {
		defer func() { <-c.repairSem }()
		fill := &mcclient.Item{Key: key, Value: it.Value, Flags: it.Flags}
		c.fanOut(stale,
			func(cl *mcclient.Client) *mcclient.Call { return cl.IssueSet(fill) },
			func(_ uint64, err error) {
				if err == nil {
					c.repairs.Add(1)
				}
			})
	}()
}

// RepairKeys runs synchronous anti-entropy over the given keys: each
// key's replica set is read in bulk, and any reachable replica missing a
// value another replica holds is rewritten. It returns the number of
// (key, replica) repairs performed. Operators call this after bringing a
// server back empty; the read path's incidental repair then keeps it
// converged.
func (c *Cluster) RepairKeys(keys []string) (int, error) {
	if len(keys) == 0 {
		return 0, nil
	}
	groups := c.ring.GroupN(keys, c.reps)
	have := make(map[string]map[string]*mcclient.Item, len(groups))
	for addr, ks := range groups {
		nd := c.nodes[addr]
		cl, err := nd.client()
		if err != nil {
			c.replicaErrors.Add(1)
			continue // unreachable: skip, never treat as "missing everything"
		}
		items, err := cl.GetMulti(ks)
		if err != nil {
			if mcclient.IsConnError(err) {
				c.opErr(nd, cl, err)
				continue
			}
			return 0, err
		}
		have[addr] = items
	}
	if len(have) == 0 {
		return 0, ErrNoReplicas
	}
	toSet := make(map[string][]*mcclient.Item)
	for _, k := range keys {
		reps := c.ring.GetN(k, c.reps)
		var val *mcclient.Item
		for _, addr := range reps {
			if it := have[addr][k]; it != nil {
				val = it
				break
			}
		}
		if val == nil {
			continue // nobody has it: nothing to propagate
		}
		for _, addr := range reps {
			if have[addr] == nil {
				continue // replica was unreachable during the scan
			}
			if have[addr][k] == nil {
				toSet[addr] = append(toSet[addr], &mcclient.Item{Key: k, Value: val.Value, Flags: val.Flags})
			}
		}
	}
	repaired := 0
	for addr, its := range toSet {
		nd := c.nodes[addr]
		cl, err := nd.client()
		if err != nil {
			continue
		}
		perKey, err := cl.SetMulti(its)
		if err != nil {
			if mcclient.IsConnError(err) {
				c.opErr(nd, cl, err)
			}
			continue
		}
		ok := len(its) - len(perKey)
		repaired += ok
		c.repairs.Add(int64(ok))
	}
	return repaired, nil
}

// Stats is a point-in-time snapshot of the cluster client's counters.
type Stats struct {
	Gets, Sets, Deletes int64
	// HotGets counts GETs for keys flagged hot by the sketch;
	// FrontCacheHits of those were answered with no socket round-trip.
	HotGets                 int64
	FrontCacheHits          int64
	FrontCacheLookups       int64
	FrontCacheEvictions     int64
	FrontCacheInvalidations int64
	FrontCacheEntries       int
	// SpreadReads counts hot GETs routed to a non-primary replica;
	// Failovers counts operations that succeeded only after at least one
	// replica failed; Repairs counts replica write-backs.
	SpreadReads   int64
	Failovers     int64
	Repairs       int64
	ReplicaErrors int64
	// ShedGets/ShedSets count admission-control rejections.
	ShedGets int64
	ShedSets int64
	Inflight int64
}

// HitRate returns front-cache hits as a fraction of all GETs.
func (s Stats) HitRate() float64 {
	if s.Gets == 0 {
		return 0
	}
	return float64(s.FrontCacheHits) / float64(s.Gets)
}

// ShedRate returns shed operations as a fraction of all offered ops.
func (s Stats) ShedRate() float64 {
	total := s.Gets + s.Sets + s.Deletes
	if total == 0 {
		return 0
	}
	return float64(s.ShedGets+s.ShedSets) / float64(total)
}

// Stats snapshots the counters.
func (c *Cluster) Stats() Stats {
	st := Stats{
		Gets:          c.gets.Load(),
		Sets:          c.sets.Load(),
		Deletes:       c.deletes.Load(),
		HotGets:       c.hotGets.Load(),
		SpreadReads:   c.spreadReads.Load(),
		Failovers:     c.failovers.Load(),
		Repairs:       c.repairs.Load(),
		ReplicaErrors: c.replicaErrors.Load(),
		ShedGets:      c.shedGets.Load(),
		ShedSets:      c.shedSets.Load(),
		Inflight:      c.inflight.Load(),
	}
	if c.fc != nil {
		st.FrontCacheHits, st.FrontCacheLookups, st.FrontCacheEvictions, st.FrontCacheInvalidations = c.fc.snapshot()
		st.FrontCacheEntries = c.fc.len()
	}
	return st
}
