package core

func init() {
	RegisterPolicy("bb-adaptive", func(Config) Policy { return &adaptivePolicy{} })
}

// adaptivePolicy switches persistence mode per block based on observed
// write traffic, after Shi et al. ("Optimizing the SSD Burst Buffer by
// Traffic Detection"): while traffic is light every block is written
// through to Lustre (zero loss window, no backlog), and when a burst
// arrives the policy degrades to async flushing so writers see buffer
// speed and the flusher pool absorbs the backlog.
//
// The traffic signal is the number of blocks currently in flight — blocks
// being streamed by writers plus blocks queued or mid-copy in the flusher
// pool. Hysteresis (adaptiveBurstBlocks / adaptiveCalmBlocks) keeps the
// detector from flapping at the boundary.
type adaptivePolicy struct {
	// burst is the detector state: true while degraded to async.
	burst bool
}

func (a *adaptivePolicy) Name() string { return "bb-adaptive" }

// pressure counts in-flight blocks: streaming writers plus flusher backlog.
func (a *adaptivePolicy) pressure(fs *Instance) int {
	depth := fs.openBlocks
	for _, s := range fs.servers {
		depth += s.dirtyBacklog() + s.flushing
	}
	return depth
}

func (a *adaptivePolicy) OnBlockOpen(fs *Instance, b *bbBlock) BlockPlan {
	p := a.pressure(fs)
	if a.burst {
		if p <= adaptiveCalmBlocks {
			a.burst = false
		}
	} else if p >= adaptiveBurstBlocks {
		a.burst = true
	}
	if a.burst {
		fs.metrics.Counter("adaptive.blocks.async").Inc()
		return BlockPlan{Mode: FlushAsync}
	}
	fs.metrics.Counter("adaptive.blocks.writethrough").Inc()
	return BlockPlan{Mode: FlushWriteThrough, LustreTee: true}
}

func (a *adaptivePolicy) ReadSources(*Instance, *bbBlock) []SourceKind { return DefaultReadOrder() }

func (a *adaptivePolicy) OnEvict(*Instance, *bbBlock) {}
