// Package dfs defines the file-system abstraction shared by every storage
// backend in the simulation — stock HDFS, direct Lustre, and the burst
// buffer's integration schemes — and consumed by the MapReduce engine and
// the workloads. Data is modelled as byte counts: writers and readers move
// sizes, not payloads, while all metadata (paths, block maps, placement) is
// real. BlockStream is the block reader the block file systems share.
package dfs

import (
	"errors"

	"hbb/internal/netsim"
	"hbb/internal/sim"
)

// Errors shared by file-system implementations.
var (
	ErrNotFound  = errors.New("dfs: no such file or directory")
	ErrExists    = errors.New("dfs: file already exists")
	ErrIsDir     = errors.New("dfs: is a directory")
	ErrNotDir    = errors.New("dfs: not a directory")
	ErrNoSpace   = errors.New("dfs: no space left")
	ErrClosed    = errors.New("dfs: stream closed")
	ErrCorrupt   = errors.New("dfs: block unavailable or corrupt")
	ErrReadOnly  = errors.New("dfs: file under construction")
	ErrShortRead = errors.New("dfs: read past end of file")
)

// FileInfo describes a file or directory.
type FileInfo struct {
	Path  string
	Size  int64
	IsDir bool
}

// BlockLocation describes one block of a file and the nodes that can serve
// it locally (empty when no node-local copy exists, e.g. data living in the
// burst buffer or on Lustre).
type BlockLocation struct {
	Offset int64
	Length int64
	Hosts  []netsim.NodeID
}

// Writer is an open output stream. Write appends n logical bytes; Close
// seals the file. Both charge virtual time on the calling process.
type Writer interface {
	Write(p *sim.Proc, n int64) error
	Close(p *sim.Proc) error
}

// Reader is an open input stream over a whole file, reading sequentially.
// Read consumes up to n bytes and returns the number consumed (0 at EOF).
type Reader interface {
	Read(p *sim.Proc, n int64) (int64, error)
	Close(p *sim.Proc) error
}

// RangeReader is an optional FileSystem capability: reading an exact byte
// range of a file without streaming from the start. Shared-FS shuffle
// (Hadoop-on-Lustre) uses it so reducers fetch precisely their partition.
type RangeReader interface {
	ReadRange(p *sim.Proc, client netsim.NodeID, path string, offset, length int64) error
}

// RangeFileSystem is a FileSystem with the RangeReader capability: what a
// shared-FS shuffle spills map output to.
type RangeFileSystem interface {
	FileSystem
	RangeReader
}

// FileSystem is the storage abstraction. All methods charge virtual time
// (RPCs, device I/O) on the calling process. Client identifies the node
// the calling process runs on, which placement policies use for locality.
type FileSystem interface {
	// Name identifies the backend ("hdfs", "lustre", "bb-async", ...).
	Name() string
	// Create opens a new file for writing from the given client node.
	Create(p *sim.Proc, client netsim.NodeID, path string) (Writer, error)
	// Open opens an existing file for reading from the given client node.
	Open(p *sim.Proc, client netsim.NodeID, path string) (Reader, error)
	// Stat returns metadata for a path.
	Stat(p *sim.Proc, client netsim.NodeID, path string) (FileInfo, error)
	// List returns the children of a directory.
	List(p *sim.Proc, client netsim.NodeID, dir string) ([]FileInfo, error)
	// Delete removes a file or an empty directory.
	Delete(p *sim.Proc, client netsim.NodeID, path string) error
	// Mkdir creates a directory (parents included).
	Mkdir(p *sim.Proc, client netsim.NodeID, path string) error
	// BlockLocations reports where each block of a file can be read
	// node-locally, for locality-aware task scheduling.
	BlockLocations(p *sim.Proc, client netsim.NodeID, path string) ([]BlockLocation, error)
}
