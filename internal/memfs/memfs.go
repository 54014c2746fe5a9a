// Package memfs is an in-memory hierarchical filesystem running on the
// virtual uniprocessor: the stand-in for the Andrew File System in the
// afs-bench workload (§5.3) and the file substrate for the other
// applications.
//
// Every node carries its own relinquishing mutex from the configured
// thread package, and path walks use lock coupling, so filesystem-intensive
// workloads generate the large volume of low-level atomic operations whose
// cost Table 3 measures. Data transfer charges cycles per block to model
// copying.
package memfs

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"repro/internal/cthreads"
	"repro/internal/uniproc"
)

// BlockSize is the unit of charged data transfer.
const BlockSize = 512

// blockCycles is the ALU work charged per block copied.
const blockCycles = 120

// Errors.
var (
	ErrNotFound    = errors.New("memfs: not found")
	ErrExists      = errors.New("memfs: already exists")
	ErrNotDir      = errors.New("memfs: not a directory")
	ErrIsDir       = errors.New("memfs: is a directory")
	ErrDirNotEmpty = errors.New("memfs: directory not empty")
	ErrBadPath     = errors.New("memfs: bad path")
	ErrBadOffset   = errors.New("memfs: negative offset")
)

// Stats counts filesystem operations.
type Stats struct {
	Lookups  uint64
	Reads    uint64
	Writes   uint64
	Creates  uint64
	Removes  uint64
	BytesIn  uint64 // written
	BytesOut uint64 // read
}

// FS is the filesystem.
type FS struct {
	pkg   *cthreads.Pkg
	root  *node
	Stats Stats
}

type node struct {
	mu       *cthreads.Mutex
	isDir    bool
	children map[string]*node
	data     []byte
}

// New creates an empty filesystem whose locks come from pkg.
func New(pkg *cthreads.Pkg) *FS {
	return &FS{
		pkg: pkg,
		root: &node{
			mu:       pkg.NewMutex(),
			isDir:    true,
			children: make(map[string]*node),
		},
	}
}

// split validates and splits a path into components.
func split(path string) ([]string, error) {
	if path == "" || path[0] != '/' {
		return nil, ErrBadPath
	}
	if path == "/" {
		return nil, nil
	}
	parts := strings.Split(path[1:], "/")
	for _, p := range parts {
		if p == "" || p == "." || p == ".." {
			return nil, ErrBadPath
		}
	}
	return parts, nil
}

// walk descends to the parent directory of the final component using lock
// coupling, returning the parent node *locked* and the final name. The
// caller must Unlock the returned node.
func (fs *FS) walk(e *uniproc.Env, path string) (*node, string, error) {
	parts, err := split(path)
	if err != nil {
		return nil, "", err
	}
	if len(parts) == 0 {
		return nil, "", ErrBadPath // root has no parent
	}
	fs.Stats.Lookups++
	cur := fs.root
	cur.mu.Lock(e)
	for _, comp := range parts[:len(parts)-1] {
		e.ChargeALU(20) // directory-entry scan
		next, ok := cur.children[comp]
		if !ok {
			cur.mu.Unlock(e)
			return nil, "", fmt.Errorf("%w: %s", ErrNotFound, path)
		}
		if !next.isDir {
			cur.mu.Unlock(e)
			return nil, "", fmt.Errorf("%w: %s", ErrNotDir, path)
		}
		next.mu.Lock(e)
		cur.mu.Unlock(e)
		cur = next
	}
	e.ChargeALU(20)
	return cur, parts[len(parts)-1], nil
}

// Mkdir creates a directory.
func (fs *FS) Mkdir(e *uniproc.Env, path string) error {
	parent, name, err := fs.walk(e, path)
	if err != nil {
		return err
	}
	defer parent.mu.Unlock(e)
	if _, ok := parent.children[name]; ok {
		return fmt.Errorf("%w: %s", ErrExists, path)
	}
	fs.Stats.Creates++
	parent.children[name] = &node{
		mu:       fs.pkg.NewMutex(),
		isDir:    true,
		children: make(map[string]*node),
	}
	e.ChargeALU(40)
	return nil
}

// Create creates an empty file, failing if path exists.
func (fs *FS) Create(e *uniproc.Env, path string) error {
	parent, name, err := fs.walk(e, path)
	if err != nil {
		return err
	}
	defer parent.mu.Unlock(e)
	if _, ok := parent.children[name]; ok {
		return fmt.Errorf("%w: %s", ErrExists, path)
	}
	fs.Stats.Creates++
	parent.children[name] = &node{mu: fs.pkg.NewMutex()}
	e.ChargeALU(40)
	return nil
}

// lookup returns the locked node at path (file or dir). Caller unlocks.
func (fs *FS) lookup(e *uniproc.Env, path string) (*node, error) {
	parts, err := split(path)
	if err != nil {
		return nil, err
	}
	if len(parts) == 0 {
		fs.root.mu.Lock(e)
		return fs.root, nil
	}
	parent, name, err := fs.walk(e, path)
	if err != nil {
		return nil, err
	}
	n, ok := parent.children[name]
	if !ok {
		parent.mu.Unlock(e)
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	n.mu.Lock(e)
	parent.mu.Unlock(e)
	return n, nil
}

// WriteFile replaces the contents of an existing file.
func (fs *FS) WriteFile(e *uniproc.Env, path string, data []byte) error {
	n, err := fs.lookup(e, path)
	if err != nil {
		return err
	}
	defer n.mu.Unlock(e)
	if n.isDir {
		return fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	fs.Stats.Writes++
	fs.Stats.BytesIn += uint64(len(data))
	n.data = append(n.data[:0], data...)
	e.ChargeALU(blockCycles * (1 + len(data)/BlockSize))
	return nil
}

// Append appends data to an existing file.
func (fs *FS) Append(e *uniproc.Env, path string, data []byte) error {
	n, err := fs.lookup(e, path)
	if err != nil {
		return err
	}
	defer n.mu.Unlock(e)
	if n.isDir {
		return fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	fs.Stats.Writes++
	fs.Stats.BytesIn += uint64(len(data))
	n.data = append(n.data, data...)
	e.ChargeALU(blockCycles * (1 + len(data)/BlockSize))
	return nil
}

// ReadFile returns a copy of the file's contents.
func (fs *FS) ReadFile(e *uniproc.Env, path string) ([]byte, error) {
	n, err := fs.lookup(e, path)
	if err != nil {
		return nil, err
	}
	defer n.mu.Unlock(e)
	if n.isDir {
		return nil, fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	fs.Stats.Reads++
	fs.Stats.BytesOut += uint64(len(n.data))
	out := append([]byte(nil), n.data...)
	e.ChargeALU(blockCycles * (1 + len(out)/BlockSize))
	return out, nil
}

// ReadAt reads up to len(buf) bytes at offset off, returning the count;
// n == 0 at or past end of file. A negative offset is an error, not a
// panic: the bound below only guards the far end of the file.
func (fs *FS) ReadAt(e *uniproc.Env, path string, off int, buf []byte) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("%w: %d", ErrBadOffset, off)
	}
	n, err := fs.lookup(e, path)
	if err != nil {
		return 0, err
	}
	defer n.mu.Unlock(e)
	if n.isDir {
		return 0, fmt.Errorf("%w: %s", ErrIsDir, path)
	}
	fs.Stats.Reads++
	if off >= len(n.data) {
		return 0, nil
	}
	c := copy(buf, n.data[off:])
	fs.Stats.BytesOut += uint64(c)
	e.ChargeALU(blockCycles * (1 + c/BlockSize))
	return c, nil
}

// Stat reports existence, directory-ness and size.
func (fs *FS) Stat(e *uniproc.Env, path string) (isDir bool, size int, err error) {
	n, err := fs.lookup(e, path)
	if err != nil {
		return false, 0, err
	}
	defer n.mu.Unlock(e)
	fs.Stats.Lookups++
	e.ChargeALU(10)
	return n.isDir, len(n.data), nil
}

// ReadDir lists a directory's entries in sorted order.
func (fs *FS) ReadDir(e *uniproc.Env, path string) ([]string, error) {
	n, err := fs.lookup(e, path)
	if err != nil {
		return nil, err
	}
	defer n.mu.Unlock(e)
	if !n.isDir {
		return nil, fmt.Errorf("%w: %s", ErrNotDir, path)
	}
	fs.Stats.Lookups++
	names := make([]string, 0, len(n.children))
	for name := range n.children {
		names = append(names, name)
	}
	sort.Strings(names)
	e.ChargeALU(10 * (1 + len(names)))
	return names, nil
}

// Remove deletes a file or empty directory.
func (fs *FS) Remove(e *uniproc.Env, path string) error {
	parent, name, err := fs.walk(e, path)
	if err != nil {
		return err
	}
	defer parent.mu.Unlock(e)
	n, ok := parent.children[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	if n.isDir && len(n.children) > 0 {
		return fmt.Errorf("%w: %s", ErrDirNotEmpty, path)
	}
	fs.Stats.Removes++
	delete(parent.children, name)
	e.ChargeALU(30)
	return nil
}
