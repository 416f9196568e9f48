package core

import (
	"fmt"
	"sort"
)

// SourceKind classifies the places a block's bytes can be read from. A
// policy expresses its read preference as an ordered SourceKind list; the
// reader walks the list, expanding SourceBuffer into every live in-buffer
// replica, and falls through to the next entry when a source is dead or
// already failed mid-stream.
type SourceKind int

// The four source classes, in the default preference order.
const (
	// SourceLocal is a replica on the reading client's own node.
	SourceLocal SourceKind = iota
	// SourceBuffer is any live in-buffer (RDMA-Memcached) replica server.
	SourceBuffer
	// SourceRemoteLocal is a node-local replica on another compute node,
	// streamed over the fabric.
	SourceRemoteLocal
	// SourceLustre is the block's backing object on the parallel FS.
	SourceLustre
)

// DefaultReadOrder is the preference order every built-in scheme uses:
// cheapest source first.
func DefaultReadOrder() []SourceKind {
	return []SourceKind{SourceLocal, SourceBuffer, SourceRemoteLocal, SourceLustre}
}

// FlushMode selects how a sealed block reaches Lustre.
type FlushMode int

const (
	// FlushAsync enqueues the block on its primary server's dirty queue;
	// the flusher pool drains it in the background (loss window until
	// flush completes).
	FlushAsync FlushMode = iota
	// FlushWriteThrough requires the block's Lustre tee to have persisted
	// every byte before the client's ack; the block is born clean. Plans
	// using it must also set LustreTee.
	FlushWriteThrough
)

func (m FlushMode) String() string {
	switch m {
	case FlushAsync:
		return "async"
	case FlushWriteThrough:
		return "write-through"
	default:
		return "invalid"
	}
}

// BlockPlan is a policy's decision for one block about to stream: which
// side channels the writer feeds in parallel with the buffer write, and how
// the sealed block persists. The writer owns the tee machinery; the plan
// only declares which channels to open, so policies stay declarative.
type BlockPlan struct {
	// Mode picks the persistence path at block seal.
	Mode FlushMode
	// LustreTee streams every chunk to the block's Lustre object in
	// parallel with the buffer write (required by FlushWriteThrough).
	LustreTee bool
	// LocalTee writes one replica to the writer's node-local storage in
	// parallel (degrades silently when no local device has room).
	LocalTee bool
}

// Policy is the pluggable scheme layer: everything that distinguishes the
// paper's HDFS⇄Lustre integration schemes — side channels, persistence
// mode, and read-source preference — expressed as hooks consulted by the
// scheme-agnostic writer, reader, and flusher. Register implementations
// with RegisterPolicy and select them by name via Config.Policy.
type Policy interface {
	// Name is the scheme's report label (also its registry key).
	Name() string
	// OnBlockOpen is consulted by the writer when a block starts
	// streaming; the returned plan fixes the block's side channels and
	// persistence mode. Policies may inspect live instance state (queue
	// depths, open-block counts) to decide per block.
	OnBlockOpen(fs *Instance, b *bbBlock) BlockPlan
	// ReadSources returns the ordered source preference for reading b.
	ReadSources(fs *Instance, b *bbBlock) []SourceKind
	// OnEvict is notified after a clean block was evicted from a server
	// to make room (bookkeeping only; the eviction already happened).
	OnEvict(fs *Instance, b *bbBlock)
}

// policyFactories maps registered policy names to their constructors.
var policyFactories = map[string]func(Config) Policy{}

// RegisterPolicy registers a named policy constructor. Registering a
// duplicate name panics; call from package init or test setup.
func RegisterPolicy(name string, factory func(Config) Policy) {
	if name == "" || factory == nil {
		panic("core: RegisterPolicy needs a name and a factory")
	}
	if _, dup := policyFactories[name]; dup {
		panic(fmt.Sprintf("core: policy %q registered twice", name))
	}
	policyFactories[name] = factory
}

// PolicyNames returns every registered policy name, sorted.
func PolicyNames() []string {
	names := make([]string, 0, len(policyFactories))
	for n := range policyFactories {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// newPolicy instantiates the named policy.
func newPolicy(name string, cfg Config) (Policy, error) {
	f, ok := policyFactories[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown policy %q (registered: %v)", name, PolicyNames())
	}
	return f(cfg), nil
}
