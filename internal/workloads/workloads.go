// Package workloads implements the benchmark applications the paper
// evaluates with: TestDFSIO (write and read), RandomWriter, Sort, and an
// I/O-intensive scan (grep/WordCount-shaped), each expressed as a
// MapReduce job over a pluggable file system. CPU cost factors are
// calibrated so Sort is partly compute-bound (its gains are percentages)
// while TestDFSIO is purely I/O-bound (its gains are multiples), matching
// the structure of the paper's results.
package workloads

import (
	"fmt"
	"time"

	"hbb/internal/cluster"
	"hbb/internal/dfs"
	"hbb/internal/mapreduce"
	"hbb/internal/sim"
)

// CPU cost factors per workload (relative to node compute rate).
const (
	dfsioCPU        = 0.02 // checksumming only
	randomWriterCPU = 0.15 // random record generation
	sortMapCPU      = 4.0  // parse + partition + spill sort (~100 MB/s/slot)
	sortReduceCPU   = 6.0  // merge + final sort (~65 MB/s/slot)
	scanMapCPU      = 0.10 // pattern match
)

// DFSIOResult reports a TestDFSIO phase.
type DFSIOResult struct {
	mapreduce.Result
	Files    int
	FileSize int64
}

// AggregateMBps is total data over wall-clock, the paper's "Total
// Throughput" metric.
func (r DFSIOResult) AggregateMBps() float64 {
	bytes := int64(r.Files) * r.FileSize
	if r.Duration <= 0 {
		return 0
	}
	return float64(bytes) / 1e6 / r.Duration.Seconds()
}

// DFSIOWrite runs the TestDFSIO write phase: files × fileSize, one
// generator map per file, into dir on fs.
func DFSIOWrite(p *sim.Proc, cl *cluster.Cluster, fs dfs.FileSystem, dir string, files int, fileSize int64) (DFSIOResult, error) {
	res, err := mapreduce.Run(p, cl, mapreduce.Job{
		Name:           "dfsio-write",
		Maps:           files,
		GenBytesPerMap: fileSize,
		OutputFS:       fs,
		OutputDir:      dir,
		MapCPUFactor:   dfsioCPU,
	})
	return DFSIOResult{Result: res, Files: files, FileSize: fileSize}, err
}

// DFSIORead runs the TestDFSIO read phase over every file in dir.
func DFSIORead(p *sim.Proc, cl *cluster.Cluster, fs dfs.FileSystem, dir string) (DFSIOResult, error) {
	inputs, total, err := listFiles(p, cl, fs, dir)
	if err != nil {
		return DFSIOResult{}, err
	}
	res, err := mapreduce.Run(p, cl, mapreduce.Job{
		Name:         "dfsio-read",
		Input:        inputs,
		InputFS:      fs,
		MapCPUFactor: dfsioCPU,
	})
	fileSize := int64(0)
	if len(inputs) > 0 {
		fileSize = total / int64(len(inputs))
	}
	return DFSIOResult{Result: res, Files: len(inputs), FileSize: fileSize}, err
}

// RandomWriter generates random records: maps × bytesPerMap into dir.
func RandomWriter(p *sim.Proc, cl *cluster.Cluster, fs dfs.FileSystem, dir string, maps int, bytesPerMap int64) (mapreduce.Result, error) {
	return mapreduce.Run(p, cl, mapreduce.Job{
		Name:           "randomwriter",
		Maps:           maps,
		GenBytesPerMap: bytesPerMap,
		OutputFS:       fs,
		OutputDir:      dir,
		MapCPUFactor:   randomWriterCPU,
	})
}

// Sort runs the canonical Sort benchmark over the files in inDir,
// writing sorted partitions to outDir. Data volume is conserved end to
// end (identity map and reduce over key-value records).
func Sort(p *sim.Proc, cl *cluster.Cluster, inFS dfs.FileSystem, inDir string, outFS dfs.FileSystem, outDir string, reducers int) (mapreduce.Result, error) {
	inputs, _, err := listFiles(p, cl, inFS, inDir)
	if err != nil {
		return mapreduce.Result{}, err
	}
	if reducers <= 0 {
		reducers = len(cl.Nodes)
	}
	return mapreduce.Run(p, cl, mapreduce.Job{
		Name:              "sort",
		Input:             inputs,
		InputFS:           inFS,
		OutputFS:          outFS,
		OutputDir:         outDir,
		IntermediateFS:    intermediatesOn(inFS),
		NumReducers:       reducers,
		MapCPUFactor:      sortMapCPU,
		MapOutputRatio:    1.0,
		ReduceCPUFactor:   sortReduceCPU,
		ReduceOutputRatio: 1.0,
	})
}

// Scan runs an I/O-intensive filter (grep/WordCount-shaped): it reads
// every file in dir, keeps selectivity of the bytes as map output, and
// aggregates through a small reducer pool into outDir.
func Scan(p *sim.Proc, cl *cluster.Cluster, fs dfs.FileSystem, dir string, outFS dfs.FileSystem, outDir string, selectivity float64) (mapreduce.Result, error) {
	inputs, _, err := listFiles(p, cl, fs, dir)
	if err != nil {
		return mapreduce.Result{}, err
	}
	if selectivity <= 0 {
		selectivity = 0.02
	}
	return mapreduce.Run(p, cl, mapreduce.Job{
		Name:              "scan",
		Input:             inputs,
		InputFS:           fs,
		OutputFS:          outFS,
		OutputDir:         outDir,
		IntermediateFS:    intermediatesOn(fs),
		NumReducers:       1,
		MapCPUFactor:      scanMapCPU,
		MapOutputRatio:    selectivity,
		ReduceCPUFactor:   scanMapCPU,
		ReduceOutputRatio: 1.0,
	})
}

// intermediatesOn returns the FS map outputs should spill to: Lustre-mode
// Hadoop deployments point intermediate directories at Lustre as well
// (compute nodes are storage-poor); every other mode spills node-locally.
func intermediatesOn(fs dfs.FileSystem) dfs.RangeFileSystem {
	if rfs, ok := fs.(dfs.RangeFileSystem); ok && fs.Name() == "lustre" {
		return rfs
	}
	return nil
}

// listFiles enumerates the regular files of a directory.
func listFiles(p *sim.Proc, cl *cluster.Cluster, fs dfs.FileSystem, dir string) ([]string, int64, error) {
	fis, err := fs.List(p, cl.Nodes[0].ID, dir)
	if err != nil {
		return nil, 0, err
	}
	var paths []string
	var total int64
	for _, fi := range fis {
		if fi.IsDir {
			continue
		}
		paths = append(paths, fi.Path)
		total += fi.Size
	}
	if len(paths) == 0 {
		return nil, 0, fmt.Errorf("workloads: no files under %q", dir)
	}
	return paths, total, nil
}

// Cleanup removes a benchmark directory tree's files (flat layouts only).
func Cleanup(p *sim.Proc, cl *cluster.Cluster, fs dfs.FileSystem, dir string) {
	fis, err := fs.List(p, cl.Nodes[0].ID, dir)
	if err != nil {
		return
	}
	for _, fi := range fis {
		_ = fs.Delete(p, cl.Nodes[0].ID, fi.Path)
	}
	_ = fs.Delete(p, cl.Nodes[0].ID, dir)
}

// Elapse is a tiny helper for timing sections inside driver processes.
func Elapse(p *sim.Proc, fn func()) time.Duration {
	start := p.Now()
	fn()
	return p.Now() - start
}
