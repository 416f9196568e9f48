package dfs

import (
	"fmt"
	gopath "path"
	"sort"
	"strings"
)

// TreeFile is a file record in a Tree. Data carries the owning file
// system's per-file payload (block lists, stripe layouts, ...).
type TreeFile struct {
	Path              string
	Size              int64
	UnderConstruction bool
	Data              any
}

type treeEntry struct {
	name     string
	children map[string]*treeEntry
	file     *TreeFile
}

func (e *treeEntry) isDir() bool { return e.children != nil }

// Tree is a hierarchical namespace shared by the file-system
// implementations (HDFS, Lustre, burst buffer). It is pure metadata.
type Tree struct {
	root *treeEntry
}

// NewTree returns an empty namespace rooted at "/".
func NewTree() *Tree {
	return &Tree{root: &treeEntry{name: "/", children: make(map[string]*treeEntry)}}
}

// SplitPath normalizes and splits an absolute path into components.
func SplitPath(p string) ([]string, error) {
	if p == "" || !strings.HasPrefix(p, "/") {
		return nil, fmt.Errorf("%w: path %q must be absolute", ErrNotFound, p)
	}
	p = gopath.Clean(p)
	if p == "/" {
		return nil, nil
	}
	return strings.Split(strings.TrimPrefix(p, "/"), "/"), nil
}

func (t *Tree) lookup(p string) (*treeEntry, error) {
	parts, err := SplitPath(p)
	if err != nil {
		return nil, err
	}
	cur := t.root
	for _, part := range parts {
		if !cur.isDir() {
			return nil, fmt.Errorf("%w: %q", ErrNotDir, p)
		}
		next, ok := cur.children[part]
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNotFound, p)
		}
		cur = next
	}
	return cur, nil
}

// MkdirAll creates a directory and any missing parents.
func (t *Tree) MkdirAll(p string) error {
	parts, err := SplitPath(p)
	if err != nil {
		return err
	}
	cur := t.root
	for _, part := range parts {
		next, ok := cur.children[part]
		if !ok {
			next = &treeEntry{name: part, children: make(map[string]*treeEntry)}
			cur.children[part] = next
		}
		if !next.isDir() {
			return fmt.Errorf("%w: %q", ErrNotDir, p)
		}
		cur = next
	}
	return nil
}

// CreateFile creates a new file, auto-creating parents, and returns its
// record marked under construction.
func (t *Tree) CreateFile(p string) (*TreeFile, error) {
	parts, err := SplitPath(p)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: %q", ErrIsDir, p)
	}
	parentPath := "/" + strings.Join(parts[:len(parts)-1], "/")
	if err := t.MkdirAll(parentPath); err != nil {
		return nil, err
	}
	parent, err := t.lookup(parentPath)
	if err != nil {
		return nil, err
	}
	name := parts[len(parts)-1]
	if existing, ok := parent.children[name]; ok {
		if existing.isDir() {
			return nil, fmt.Errorf("%w: %q", ErrIsDir, p)
		}
		return nil, fmt.Errorf("%w: %q", ErrExists, p)
	}
	f := &TreeFile{Path: gopath.Clean(p), UnderConstruction: true}
	parent.children[name] = &treeEntry{name: name, file: f}
	return f, nil
}

// GetFile resolves a path to a file record.
func (t *Tree) GetFile(p string) (*TreeFile, error) {
	e, err := t.lookup(p)
	if err != nil {
		return nil, err
	}
	if e.isDir() {
		return nil, fmt.Errorf("%w: %q", ErrIsDir, p)
	}
	return e.file, nil
}

// Remove deletes a file (returning its record) or an empty directory
// (returning nil).
func (t *Tree) Remove(p string) (*TreeFile, error) {
	parts, err := SplitPath(p)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: cannot delete /", ErrIsDir)
	}
	parent, err := t.lookup("/" + strings.Join(parts[:len(parts)-1], "/"))
	if err != nil {
		return nil, err
	}
	name := parts[len(parts)-1]
	e, ok := parent.children[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, p)
	}
	if e.isDir() && len(e.children) > 0 {
		return nil, fmt.Errorf("dfs: directory %q not empty", p)
	}
	delete(parent.children, name)
	return e.file, nil
}

// List returns the entries of a directory in name order.
func (t *Tree) List(p string) ([]FileInfo, error) {
	e, err := t.lookup(p)
	if err != nil {
		return nil, err
	}
	if !e.isDir() {
		return nil, fmt.Errorf("%w: %q", ErrNotDir, p)
	}
	names := make([]string, 0, len(e.children))
	for n := range e.children {
		names = append(names, n)
	}
	sort.Strings(names)
	base := gopath.Clean(p)
	if base == "/" {
		base = ""
	}
	out := make([]FileInfo, 0, len(names))
	for _, n := range names {
		c := e.children[n]
		fi := FileInfo{Path: base + "/" + n, IsDir: c.isDir()}
		if c.file != nil {
			fi.Size = c.file.Size
		}
		out = append(out, fi)
	}
	return out, nil
}

// Walk calls fn on every file record in the tree, in path order.
func (t *Tree) Walk(fn func(*TreeFile)) {
	var walk func(e *treeEntry)
	walk = func(e *treeEntry) {
		if e.file != nil {
			fn(e.file)
		}
		names := make([]string, 0, len(e.children))
		for n := range e.children {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			walk(e.children[n])
		}
	}
	walk(t.root)
}

// Stat returns file info for a path.
func (t *Tree) Stat(p string) (FileInfo, error) {
	e, err := t.lookup(p)
	if err != nil {
		return FileInfo{}, err
	}
	fi := FileInfo{Path: gopath.Clean(p), IsDir: e.isDir()}
	if e.file != nil {
		fi.Size = e.file.Size
	}
	return fi, nil
}
