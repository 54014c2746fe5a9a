package journal

import (
	"fmt"
	"strings"

	"repro/internal/cthreads"
	"repro/internal/memfs"
	"repro/internal/uniproc"
)

// JFS layers the WAL under memfs: every mutating operation appends a
// record, makes it durable, and only then applies the in-place update to
// the volatile node tree. The tree itself never survives a crash — it is
// exactly replay(log), rebuilt by MountFS from NVM contents alone.
//
// Mutations are validated BEFORE they are logged (the same checks memfs
// itself performs), so the log never holds a record whose replay would
// fail: a committed record is an operation that did succeed. A single
// journal mutex serializes validate→append→apply against concurrent
// mutators; reads go straight to memfs and its per-node lock coupling.
type JFS struct {
	fs  *memfs.FS
	log *Log
	mu  *cthreads.Mutex
}

// MountFS mounts (or creates) a journaled filesystem over the arena:
// scan the log, discard any torn tail, and replay the valid records into
// a fresh tree. An empty arena mounts as an empty filesystem.
func MountFS(e *uniproc.Env, pkg *cthreads.Pkg, arena []uniproc.Word, opt Options) (*JFS, error) {
	l, recs, err := Mount(e, arena, opt)
	if err != nil {
		return nil, err
	}
	j := &JFS{fs: memfs.New(pkg), log: l, mu: pkg.NewMutex()}
	for _, rec := range recs {
		if err := j.apply(e, rec); err != nil {
			return nil, fmt.Errorf("journal: replay of %s #%d %s: %w", rec.Kind, rec.Seq, rec.Path, err)
		}
	}
	return j, nil
}

// Log returns the underlying WAL (for inspection and stats).
func (j *JFS) Log() *Log { return j.log }

// apply performs rec's in-place update on the volatile tree.
func (j *JFS) apply(e *uniproc.Env, rec Record) error {
	switch rec.Kind {
	case OpMkdir:
		return j.fs.Mkdir(e, rec.Path)
	case OpCreate:
		return j.fs.Create(e, rec.Path)
	case OpWriteFile:
		return j.fs.WriteFile(e, rec.Path, rec.Data)
	case OpAppend:
		return j.fs.Append(e, rec.Path, rec.Data)
	case OpRemove:
		return j.fs.Remove(e, rec.Path)
	}
	return fmt.Errorf("journal: unknown record kind %d", rec.Kind)
}

// Do performs rec's operation (its Seq is ignored) through the
// write-ahead path: validate, commit the record, apply. Mkdir, Create,
// WriteFile, Append and Remove are Do with the record spelled out.
func (j *JFS) Do(e *uniproc.Env, rec Record) error {
	j.mu.Lock(e)
	defer j.mu.Unlock(e)
	if err := j.precheck(e, rec.Kind, rec.Path); err != nil {
		return err
	}
	if _, err := j.log.Append(e, rec.Kind, rec.Path, rec.Data); err != nil {
		return err
	}
	if err := j.apply(e, rec); err != nil {
		// The record is durable but the apply failed: the volatile tree
		// and the log disagree, which the precheck exists to rule out.
		panic(fmt.Sprintf("journal: committed record failed to apply: %s %s: %v", rec.Kind, rec.Path, err))
	}
	return nil
}

// precheck mirrors memfs's own validation for kind at path, so an
// operation is only logged if its apply must succeed. It runs under the
// journal mutex, and nothing else mutates the tree outside that mutex,
// so the answer cannot go stale between precheck and apply.
func (j *JFS) precheck(e *uniproc.Env, kind Kind, path string) error {
	switch kind {
	case OpMkdir, OpCreate:
		if parent := parentPath(path); parent == "" {
			return memfs.ErrBadPath
		} else if isDir, _, err := j.fs.Stat(e, parent); err != nil {
			return err
		} else if !isDir {
			return fmt.Errorf("%w: %s", memfs.ErrNotDir, path)
		}
		if _, _, err := j.fs.Stat(e, path); err == nil {
			return fmt.Errorf("%w: %s", memfs.ErrExists, path)
		}
		return checkPath(path)
	case OpWriteFile, OpAppend:
		isDir, _, err := j.fs.Stat(e, path)
		if err != nil {
			return err
		}
		if isDir {
			return fmt.Errorf("%w: %s", memfs.ErrIsDir, path)
		}
		return nil
	case OpRemove:
		isDir, _, err := j.fs.Stat(e, path)
		if err != nil {
			return err
		}
		if isDir {
			if names, err := j.fs.ReadDir(e, path); err != nil {
				return err
			} else if len(names) > 0 {
				return fmt.Errorf("%w: %s", memfs.ErrDirNotEmpty, path)
			}
		}
		return nil
	}
	return fmt.Errorf("journal: unknown record kind %d", kind)
}

// parentPath returns the parent of a well-formed absolute path, "" if
// path has none (root or malformed).
func parentPath(path string) string {
	if len(path) < 2 || path[0] != '/' {
		return ""
	}
	i := strings.LastIndexByte(path, '/')
	if i == 0 {
		return "/"
	}
	return path[:i]
}

// checkPath rejects the path shapes memfs.split rejects, for the
// components Stat on the parent cannot see.
func checkPath(path string) error {
	if path == "" || path[0] != '/' || strings.HasSuffix(path, "/") {
		return memfs.ErrBadPath
	}
	for _, p := range strings.Split(path[1:], "/") {
		if p == "" || p == "." || p == ".." {
			return memfs.ErrBadPath
		}
	}
	return nil
}

// Mkdir journals and creates a directory.
func (j *JFS) Mkdir(e *uniproc.Env, path string) error {
	return j.Do(e, Record{Kind: OpMkdir, Path: path})
}

// Create journals and creates an empty file.
func (j *JFS) Create(e *uniproc.Env, path string) error {
	return j.Do(e, Record{Kind: OpCreate, Path: path})
}

// WriteFile journals and replaces a file's contents.
func (j *JFS) WriteFile(e *uniproc.Env, path string, data []byte) error {
	return j.Do(e, Record{Kind: OpWriteFile, Path: path, Data: data})
}

// Append journals and appends to a file.
func (j *JFS) Append(e *uniproc.Env, path string, data []byte) error {
	return j.Do(e, Record{Kind: OpAppend, Path: path, Data: data})
}

// Remove journals and deletes a file or empty directory.
func (j *JFS) Remove(e *uniproc.Env, path string) error {
	return j.Do(e, Record{Kind: OpRemove, Path: path})
}

// ReadFile reads through to the volatile tree.
func (j *JFS) ReadFile(e *uniproc.Env, path string) ([]byte, error) {
	return j.fs.ReadFile(e, path)
}

// ReadAt reads through to the volatile tree.
func (j *JFS) ReadAt(e *uniproc.Env, path string, off int, buf []byte) (int, error) {
	return j.fs.ReadAt(e, path, off, buf)
}

// Stat reads through to the volatile tree.
func (j *JFS) Stat(e *uniproc.Env, path string) (bool, int, error) {
	return j.fs.Stat(e, path)
}

// ReadDir reads through to the volatile tree.
func (j *JFS) ReadDir(e *uniproc.Env, path string) ([]string, error) {
	return j.fs.ReadDir(e, path)
}
