package mapreduce

import (
	"fmt"

	"hbb/internal/cluster"
	"hbb/internal/dfs"
	"hbb/internal/netsim"
	"hbb/internal/sim"
	"hbb/internal/storage"
)

// runMap executes one map task on a node: read (or generate) the input,
// charge CPU, and emit either intermediate data to local storage or final
// output to the job's output file system.
func (e *engine) runMap(p *sim.Proc, node *cluster.Node, t *task) error {
	j := e.job
	var inBytes int64
	if t.input != "" {
		r, err := j.InputFS.Open(p, node.ID, t.input)
		if err != nil {
			return err
		}
		for {
			n, err := r.Read(p, processChunk)
			if err != nil {
				r.Close(p)
				return err
			}
			if n == 0 {
				break
			}
			node.Compute(p, n, j.MapCPUFactor)
			inBytes += n
		}
		if err := r.Close(p); err != nil {
			return err
		}
	} else {
		inBytes = j.GenBytesPerMap
	}
	outBytes := int64(float64(inBytes) * j.MapOutputRatio)
	if t.input == "" && j.NumReducers == 0 {
		// Generator map writing straight to the output FS (TestDFSIO
		// write, RandomWriter): interleave generation CPU with the write.
		return e.writeGenerated(p, node, t, inBytes)
	}
	if t.input == "" {
		node.Compute(p, inBytes, j.MapCPUFactor)
	}
	if j.NumReducers > 0 {
		mo, err := e.writeIntermediate(p, node, t, outBytes)
		if err != nil {
			return err
		}
		e.mapOutputs[t.index] = mo
	} else if outBytes > 0 && j.OutputFS != nil && j.OutputDir != "" {
		if err := e.writeOutput(p, node, fmt.Sprintf("part-m-%05d", t.index), outBytes, 0); err != nil {
			return err
		}
	}
	e.result.BytesInput += inBytes
	return nil
}

// writeGenerated emits a generator map's file, interleaving CPU cost.
func (e *engine) writeGenerated(p *sim.Proc, node *cluster.Node, t *task, bytes int64) error {
	j := e.job
	name := fmt.Sprintf("part-m-%05d", t.index)
	path := j.OutputDir + "/" + name
	if t.attempts > 0 {
		_ = j.OutputFS.Delete(p, node.ID, path) // clear a failed attempt
	}
	w, err := j.OutputFS.Create(p, node.ID, path)
	if err != nil {
		return err
	}
	total := int64(float64(bytes) * orOne(j.MapOutputRatio))
	remaining := total
	for remaining > 0 {
		n := min64(remaining, processChunk)
		node.Compute(p, n, j.MapCPUFactor)
		if err := w.Write(p, n); err != nil {
			return err
		}
		remaining -= n
	}
	if err := w.Close(p); err != nil {
		return err
	}
	e.result.BytesOutput += total
	e.result.BytesInput += bytes
	return nil
}

func orOne(ratio float64) float64 {
	if ratio == 0 {
		return 1
	}
	return ratio
}

// writeIntermediate spills a map's output: onto the node's local storage,
// or onto the job's intermediate file system when one is configured.
func (e *engine) writeIntermediate(p *sim.Proc, node *cluster.Node, t *task, bytes int64) (*mapOutput, error) {
	if fs := e.job.IntermediateFS; fs != nil {
		path := fmt.Sprintf("/.mr-%s/map-%05d.%d", e.job.Name, t.index, t.attempts)
		w, err := fs.Create(p, node.ID, path)
		if err != nil {
			return nil, err
		}
		if err := w.Write(p, bytes); err != nil {
			return nil, err
		}
		if err := w.Close(p); err != nil {
			return nil, err
		}
		mo := &mapOutput{node: node.ID, path: path, bytes: bytes, task: t}
		e.interAlloc = append(e.interAlloc, mo)
		return mo, nil
	}
	dev := pickIntermediateDevice(node, bytes)
	if dev == nil {
		return nil, fmt.Errorf("mapreduce: no local space for %d intermediate bytes on node %d", bytes, node.ID)
	}
	if err := dev.Alloc(bytes); err != nil {
		return nil, err
	}
	dev.Write(p, bytes)
	mo := &mapOutput{node: node.ID, dev: dev, bytes: bytes, task: t}
	e.interAlloc = append(e.interAlloc, mo)
	return mo, nil
}

// pickIntermediateDevice prefers the fastest local device with room.
func pickIntermediateDevice(node *cluster.Node, bytes int64) *storage.Device {
	for _, d := range node.LocalDevices() {
		if d.Free() >= bytes {
			return d
		}
	}
	return nil
}

// writeOutput creates one output file of the given size.
func (e *engine) writeOutput(p *sim.Proc, node *cluster.Node, name string, bytes int64, cpuFactor float64) error {
	j := e.job
	path := j.OutputDir + "/" + name
	_ = j.OutputFS.Delete(p, node.ID, path) // clear any failed attempt
	w, err := j.OutputFS.Create(p, node.ID, path)
	if err != nil {
		return err
	}
	remaining := bytes
	for remaining > 0 {
		n := min64(remaining, processChunk)
		if cpuFactor > 0 {
			node.Compute(p, n, cpuFactor)
		}
		if err := w.Write(p, n); err != nil {
			return err
		}
		remaining -= n
	}
	if err := w.Close(p); err != nil {
		return err
	}
	e.result.BytesOutput += bytes
	return nil
}

// runReduce executes one reduce task: shuffle its partition from every map
// output, charge merge/sort CPU, and write the output partition.
func (e *engine) runReduce(p *sim.Proc, node *cluster.Node, t *task) error {
	j := e.job
	var shuffled int64
	for _, mo := range e.mapOutputs {
		if mo == nil {
			continue
		}
		portion := mo.bytes / int64(j.NumReducers)
		if int64(t.index) < mo.bytes%int64(j.NumReducers) {
			portion++
		}
		if portion == 0 {
			continue
		}
		if err := e.fetchPortion(p, node, t, mo, portion); err != nil {
			return err
		}
		shuffled += portion
	}
	node.Compute(p, shuffled, j.ReduceCPUFactor)
	e.result.BytesShuffled += shuffled
	if j.OutputFS != nil && j.OutputDir != "" {
		out := int64(float64(shuffled) * orOne(j.ReduceOutputRatio))
		if err := e.writeOutput(p, node, fmt.Sprintf("part-r-%05d", t.index), out, 0); err != nil {
			return err
		}
	}
	return nil
}

// fetchPortion moves one reducer's share of one map output to the reduce
// node, regenerating the map output if its node died.
func (e *engine) fetchPortion(p *sim.Proc, node *cluster.Node, t *task, mo *mapOutput, portion int64) error {
	if mo.path != "" {
		// Shared-FS intermediates (Hadoop-on-Lustre): the reducer reads
		// exactly its byte range straight off the parallel FS.
		R := int64(e.job.NumReducers)
		offset := (mo.bytes / R) * int64(t.index)
		if rem := mo.bytes % R; int64(t.index) < rem {
			offset += int64(t.index)
		} else {
			offset += rem
		}
		if rr, ok := e.job.IntermediateFS.(dfs.RangeReader); ok {
			return rr.ReadRange(p, node.ID, mo.path, offset, portion)
		}
		r, err := e.job.IntermediateFS.Open(p, node.ID, mo.path)
		if err != nil {
			return err
		}
		defer r.Close(p)
		remaining := portion
		for remaining > 0 {
			n, err := r.Read(p, min64(remaining, processChunk))
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
			remaining -= n
		}
		return nil
	}
	for attempt := 0; attempt < maxTaskAttempts; attempt++ {
		if mo.lost || e.cl.Net.Down(mo.node) {
			if mo.regen != nil {
				// Another reducer is already regenerating this output.
				mo.regen.Wait(p)
				continue
			}
			mo.regen = &sim.Event{}
			err := e.regenerate(p, node, mo)
			mo.regen.Trigger()
			mo.regen = nil
			if err != nil {
				return err
			}
		}
		mo.dev.ReadFlat(p, portion)
		if mo.node == node.ID {
			return nil
		}
		if err := e.cl.Net.Transfer(p, mo.node, node.ID, portion, netsim.Legacy); err != nil {
			mo.lost = true
			continue
		}
		return nil
	}
	return fmt.Errorf("mapreduce: could not fetch map %d output", mo.task.index)
}

// regenerate re-runs a map task on the reduce node to rebuild its lost
// intermediate output (Hadoop re-executes maps whose node died).
func (e *engine) regenerate(p *sim.Proc, node *cluster.Node, mo *mapOutput) error {
	t := mo.task
	j := e.job
	var inBytes int64
	if t.input != "" {
		r, err := j.InputFS.Open(p, node.ID, t.input)
		if err != nil {
			return err
		}
		for {
			n, err := r.Read(p, processChunk)
			if err != nil {
				r.Close(p)
				return err
			}
			if n == 0 {
				break
			}
			node.Compute(p, n, j.MapCPUFactor)
			inBytes += n
		}
		r.Close(p)
	} else {
		inBytes = j.GenBytesPerMap
		node.Compute(p, inBytes, j.MapCPUFactor)
	}
	bytes := int64(float64(inBytes) * j.MapOutputRatio)
	dev := pickIntermediateDevice(node, bytes)
	if dev == nil {
		return fmt.Errorf("mapreduce: no local space to regenerate map %d", t.index)
	}
	if err := dev.Alloc(bytes); err != nil {
		return err
	}
	dev.Write(p, bytes)
	mo.node = node.ID
	mo.dev = dev
	mo.bytes = bytes
	mo.lost = false
	e.interAlloc = append(e.interAlloc, &mapOutput{node: node.ID, dev: dev, bytes: bytes, task: t})
	e.result.MapsReRun++
	return nil
}

// releaseIntermediates frees all intermediate allocations at job end.
func (e *engine) releaseIntermediates(p *sim.Proc) {
	for _, mo := range e.interAlloc {
		if mo.dev != nil && !e.cl.Net.Down(mo.node) {
			mo.dev.Dealloc(mo.bytes)
		}
		if mo.path != "" {
			_ = e.job.IntermediateFS.Delete(p, e.cl.Nodes[0].ID, mo.path)
		}
	}
	e.interAlloc = nil
	if e.job.IntermediateFS != nil {
		_ = e.job.IntermediateFS.Delete(p, e.cl.Nodes[0].ID, fmt.Sprintf("/.mr-%s", e.job.Name))
	}
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
