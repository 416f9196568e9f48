// Package mapreduce implements a Hadoop-1-style MapReduce engine over the
// simulated cluster: a job tracker with slot-based, locality-aware task
// scheduling, map tasks that read whole input files from any
// dfs.FileSystem, local-disk intermediate outputs, an all-to-all shuffle,
// and reduce tasks that write job output back to a (possibly different)
// file system. Tasks that fail — node crashes, storage errors — are
// retried on other nodes, and lost map outputs are regenerated, mirroring
// Hadoop's recovery behaviour.
//
// Simplifications (documented in DESIGN.md): one map task per input file
// (workloads emit one file per task, as TestDFSIO/RandomWriter/Sort do),
// and the shuffle starts after the map phase completes (no slow-start
// overlap).
package mapreduce

import (
	"errors"
	"fmt"
	"time"

	"hbb/internal/cluster"
	"hbb/internal/dfs"
	"hbb/internal/netsim"
	"hbb/internal/sim"
	"hbb/internal/storage"
)

// processChunk is the read/compute interleaving granularity.
const processChunk = 4 << 20

// maxTaskAttempts bounds retries per task.
const maxTaskAttempts = 4

// Job describes a MapReduce job. Exactly one of Input or GenBytesPerMap
// drives the map phase: jobs with input files run one map per file; jobs
// without input run Maps generator tasks producing GenBytesPerMap each.
type Job struct {
	Name string

	// Input files (one map task per file) and the FS they live on.
	Input   []string
	InputFS dfs.FileSystem

	// Maps and GenBytesPerMap configure generator jobs (no input).
	Maps           int
	GenBytesPerMap int64

	// OutputFS/OutputDir receive job output (map output for map-only
	// jobs, reduce output otherwise). Empty OutputDir means no output.
	OutputFS  dfs.FileSystem
	OutputDir string

	// IntermediateFS receives map output when set; nil spills to the map
	// node's local storage, as stock Hadoop does. Hadoop-on-Lustre
	// deployments point intermediate directories at Lustre as well, which
	// is exactly the amplification the paper's burst buffer sidesteps.
	// Each reducer reads its byte range of every map output with
	// ReadRange.
	IntermediateFS dfs.RangeFileSystem

	// NumReducers is the reduce task count (0 = map-only job).
	NumReducers int

	// MapCPUFactor is CPU work per input (or generated) byte, relative to
	// the node compute rate. MapOutputRatio converts input bytes to map
	// output bytes.
	MapCPUFactor   float64
	MapOutputRatio float64

	// ReduceCPUFactor is CPU work per shuffled byte; ReduceOutputRatio
	// converts shuffled bytes to final output bytes.
	ReduceCPUFactor   float64
	ReduceOutputRatio float64
}

// Result summarizes a completed job.
type Result struct {
	Duration      time.Duration
	MapDuration   time.Duration
	MapTasks      int
	ReduceTasks   int
	DataLocalMaps int
	BytesInput    int64
	BytesShuffled int64
	BytesOutput   int64
	TaskRetries   int
	MapsReRun     int
}

// Throughput returns end-to-end MB/s over max(input, output) bytes.
func (r Result) Throughput() float64 {
	bytes := r.BytesInput
	if r.BytesOutput > bytes {
		bytes = r.BytesOutput
	}
	if r.Duration <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / r.Duration.Seconds()
}

// task is one schedulable unit.
type task struct {
	index    int
	reduce   bool
	input    string
	hosts    []netsim.NodeID
	attempts int
}

// mapOutput records where a completed map left its intermediate data:
// either on a node-local device (dev != nil) or as a file on the job's
// intermediate file system (path != "").
type mapOutput struct {
	node  netsim.NodeID
	dev   *storage.Device
	path  string
	bytes int64
	// lost marks outputs on crashed nodes awaiting regeneration; regen is
	// non-nil while some reducer is rebuilding it.
	lost  bool
	regen *sim.Event
	task  *task
}

type taskError struct {
	t   *task
	err error
}

// engine carries one job's execution state.
type engine struct {
	cl  *cluster.Cluster
	job Job

	mapOutputs []*mapOutput
	interAlloc []*mapOutput // allocations to release at job end
	result     Result
	failure    error
}

// Run executes the job from the calling simulation process and returns its
// result. The process blocks for the job's whole virtual duration.
func Run(p *sim.Proc, cl *cluster.Cluster, job Job) (Result, error) {
	e := &engine{cl: cl, job: job}
	start := p.Now()
	if err := e.validate(); err != nil {
		return Result{}, err
	}
	if job.OutputFS != nil && job.OutputDir != "" {
		if err := job.OutputFS.Mkdir(p, cl.Nodes[0].ID, job.OutputDir); err != nil {
			return Result{}, err
		}
	}
	mapTasks := e.makeMapTasks(p)
	e.result.MapTasks = len(mapTasks)
	e.mapOutputs = make([]*mapOutput, len(mapTasks))
	e.runPhase(p, mapTasks, false)
	e.result.MapDuration = p.Now() - start
	if e.failure == nil && job.NumReducers > 0 {
		reduceTasks := make([]*task, job.NumReducers)
		for i := range reduceTasks {
			reduceTasks[i] = &task{index: i, reduce: true}
		}
		e.result.ReduceTasks = len(reduceTasks)
		e.runPhase(p, reduceTasks, true)
	}
	e.releaseIntermediates(p)
	e.result.Duration = p.Now() - start
	return e.result, e.failure
}

func (e *engine) validate() error {
	j := e.job
	if len(j.Input) == 0 && j.Maps == 0 {
		return errors.New("mapreduce: job has neither input files nor generator maps")
	}
	if len(j.Input) > 0 && j.InputFS == nil {
		return errors.New("mapreduce: input files without InputFS")
	}
	if j.GenBytesPerMap > 0 && j.OutputFS == nil && j.NumReducers == 0 {
		return errors.New("mapreduce: generator job without output")
	}
	return nil
}

// makeMapTasks builds one task per input file (resolving locality hints)
// or the requested generator tasks.
func (e *engine) makeMapTasks(p *sim.Proc) []*task {
	if len(e.job.Input) == 0 {
		tasks := make([]*task, e.job.Maps)
		for i := range tasks {
			tasks[i] = &task{index: i}
		}
		return tasks
	}
	tasks := make([]*task, len(e.job.Input))
	for i, f := range e.job.Input {
		t := &task{index: i, input: f}
		if locs, err := e.job.InputFS.BlockLocations(p, e.cl.Nodes[0].ID, f); err == nil {
			// A host only counts as a locality target if it can serve the
			// majority of the file's blocks locally; otherwise a "local"
			// map would still read mostly remote data.
			coverage := map[netsim.NodeID]int{}
			for _, l := range locs {
				for _, h := range l.Hosts {
					coverage[h]++
				}
			}
			threshold := (len(locs) + 1) / 2
			best := 0
			for _, c := range coverage {
				if c > best {
					best = c
				}
			}
			if best < threshold {
				threshold = best
			}
			for _, id := range sortedHosts(coverage) {
				if coverage[id] >= threshold && threshold > 0 {
					t.hosts = append(t.hosts, id)
				}
			}
		}
		tasks[i] = t
	}
	return tasks
}

// sortedHosts returns coverage keys in deterministic order.
func sortedHosts(coverage map[netsim.NodeID]int) []netsim.NodeID {
	out := make([]netsim.NodeID, 0, len(coverage))
	for id := range coverage {
		out = append(out, id)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// jtEvent multiplexes scheduler traffic onto one store.
type jtEvent struct {
	// slot != nil: a worker asking for work.
	slot *workerHandle
	// fail != nil: a task attempt failed.
	fail *taskError
	// done != nil: a task attempt succeeded.
	done *task
}

type workerHandle struct {
	node    *cluster.Node
	mailbox *sim.Store[*task]
}

// runPhase executes one phase (map or reduce) to completion using the
// nodes' slot pools.
func (e *engine) runPhase(p *sim.Proc, tasks []*task, reduce bool) {
	if e.failure != nil || len(tasks) == 0 {
		return
	}
	events := sim.NewStore[*jtEvent]()
	workers := 0
	maxSlots := 0
	for _, node := range e.cl.Nodes {
		s := node.MapSlots.Capacity()
		if reduce {
			s = node.ReduceSlots.Capacity()
		}
		if s > maxSlots {
			maxSlots = s
		}
	}
	// Spawn slot-major (slot 0 of every node, then slot 1, ...) so the
	// initial wave of slot requests reaches the tracker interleaved across
	// nodes and tasks spread evenly, as Hadoop's heartbeat timing does.
	for s := 0; s < maxSlots; s++ {
		for _, node := range e.cl.Nodes {
			slots := node.MapSlots.Capacity()
			if reduce {
				slots = node.ReduceSlots.Capacity()
			}
			if s >= slots {
				continue
			}
			node := node
			workers++
			e.cl.Env.Spawn(fmt.Sprintf("%s.%s.worker.%d.%d", e.job.Name, phaseName(reduce), node.ID, s),
				func(q *sim.Proc) { e.worker(q, node, reduce, events) })
		}
	}
	pending := append([]*task(nil), tasks...)
	var parked []*workerHandle
	running := 0
	completed := 0
	for completed < len(tasks) && e.failure == nil {
		ev, _ := events.Get(p)
		switch {
		case ev.slot != nil:
			w := ev.slot
			if e.cl.Net.Down(w.node.ID) {
				w.mailbox.Put(nil) // retire workers on dead nodes
				continue
			}
			if t := claim(&pending, w.node); t != nil {
				running++
				if !t.reduce && hostsContain(t.hosts, w.node.ID) {
					e.result.DataLocalMaps++
				}
				w.mailbox.Put(t)
			} else {
				parked = append(parked, w)
			}
		case ev.done != nil:
			running--
			completed++
		case ev.fail != nil:
			running--
			t := ev.fail.t
			t.attempts++
			e.result.TaskRetries++
			if t.attempts >= maxTaskAttempts {
				e.failure = fmt.Errorf("mapreduce: %s task %d failed %d times: %w",
					phaseName(reduce), t.index, t.attempts, ev.fail.err)
				break
			}
			pending = append(pending, t)
		}
		// Hand queued tasks to parked slots.
		for len(pending) > 0 && len(parked) > 0 {
			w := parked[0]
			parked = parked[1:]
			if e.cl.Net.Down(w.node.ID) {
				w.mailbox.Put(nil)
				continue
			}
			t := claim(&pending, w.node)
			running++
			if !t.reduce && hostsContain(t.hosts, w.node.ID) {
				e.result.DataLocalMaps++
			}
			w.mailbox.Put(t)
		}
	}
	// Retire every worker: parked ones now, busy ones on their next ask.
	for _, w := range parked {
		w.mailbox.Put(nil)
	}
	retired := workers - len(parked)
	for retired > 0 {
		ev, _ := events.Get(p)
		if ev.slot != nil {
			ev.slot.mailbox.Put(nil)
			retired--
		}
	}
}

func phaseName(reduce bool) string {
	if reduce {
		return "reduce"
	}
	return "map"
}

func hostsContain(hosts []netsim.NodeID, id netsim.NodeID) bool {
	for _, h := range hosts {
		if h == id {
			return true
		}
	}
	return false
}

// claim removes the best task for a node from pending: a node-local one if
// any, otherwise the oldest.
func claim(pending *[]*task, node *cluster.Node) *task {
	ts := *pending
	if len(ts) == 0 {
		return nil
	}
	pick := 0
	for i, t := range ts {
		if hostsContain(t.hosts, node.ID) {
			pick = i
			break
		}
	}
	t := ts[pick]
	*pending = append(ts[:pick], ts[pick+1:]...)
	return t
}

// worker is one slot's execution loop: ask for a task, run it, report.
func (e *engine) worker(p *sim.Proc, node *cluster.Node, reduce bool, events *sim.Store[*jtEvent]) {
	slots := node.MapSlots
	if reduce {
		slots = node.ReduceSlots
	}
	mailbox := sim.NewStore[*task]()
	self := &workerHandle{node: node, mailbox: mailbox}
	for {
		events.Put(&jtEvent{slot: self})
		t, _ := mailbox.Get(p)
		if t == nil {
			return
		}
		slots.Acquire(p, 1)
		var err error
		if reduce {
			err = e.runReduce(p, node, t)
		} else {
			err = e.runMap(p, node, t)
		}
		slots.Release(1)
		if err != nil {
			events.Put(&jtEvent{fail: &taskError{t: t, err: err}})
		} else {
			events.Put(&jtEvent{done: t})
		}
	}
}
