// Package afsbench is "a script of file system intensive programs such as
// copy, compile and search" — the paper's afs-bench workload (§5.3),
// executed against the in-memory filesystem through the multithreaded
// user-level server. Like text-format it is single threaded, benefiting
// only indirectly from fast atomic operations via the server.
package afsbench

import (
	"bytes"
	"fmt"

	"repro/internal/uniproc"
	"repro/internal/uxserver"
)

// Config parametrizes the script.
type Config struct {
	Server      *uxserver.Server
	Dirs        int // source directories
	FilesPerDir int
	FileBytes   int    // size of each source file
	Needle      string // search phase target
}

// Result summarizes the script.
type Result struct {
	FilesCreated int
	FilesCopied  int
	Objects      int // "compiled" outputs
	Matches      int // search hits
	BytesRead    int
	BytesWritten int
}

// source generates the deterministic contents of file f in directory d.
func source(d, f, size int, needle string) []byte {
	data := make([]byte, 0, size+len(needle))
	x := uint32(d*131071 + f*8191 + 7)
	for len(data) < size {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		data = append(data, byte('a'+x%26))
	}
	// Plant the needle in every third file so the search phase finds a
	// predictable number of matches.
	if (d+f)%3 == 0 && len(needle) > 0 {
		copy(data[size/2:], needle)
	}
	return data[:size]
}

// compile models a compilation: read the source, do per-byte work, and
// produce a transformed object.
func compile(e *uniproc.Env, src []byte) []byte {
	obj := make([]byte, len(src))
	var h uint32 = 2166136261
	for i, b := range src {
		h = (h ^ uint32(b)) * 16777619
		obj[i] = byte(h)
	}
	e.ChargeALU(2 * len(src)) // lexing + codegen
	return obj
}

// Run executes the five-phase script: populate, copy, compile, search,
// clean.
func Run(e *uniproc.Env, cfg Config) (Result, error) {
	if cfg.Dirs == 0 {
		cfg.Dirs = 3
	}
	if cfg.FilesPerDir == 0 {
		cfg.FilesPerDir = 4
	}
	if cfg.FileBytes == 0 {
		cfg.FileBytes = 2048
	}
	if cfg.Needle == "" {
		cfg.Needle = "restartable"
	}
	s := cfg.Server
	res := Result{}

	dir := func(d int) string { return fmt.Sprintf("/src%d", d) }
	file := func(d, f int) string { return fmt.Sprintf("/src%d/f%d.c", d, f) }

	// Phase 1: populate the tree.
	for d := 0; d < cfg.Dirs; d++ {
		if err := s.Mkdir(e, dir(d)); err != nil {
			return res, err
		}
		for f := 0; f < cfg.FilesPerDir; f++ {
			data := source(d, f, cfg.FileBytes, cfg.Needle)
			if err := s.Create(e, file(d, f)); err != nil {
				return res, err
			}
			if err := s.WriteFile(e, file(d, f), data); err != nil {
				return res, err
			}
			res.FilesCreated++
			res.BytesWritten += len(data)
		}
	}

	// Phase 2: copy the tree.
	if err := s.Mkdir(e, "/copy"); err != nil {
		return res, err
	}
	for d := 0; d < cfg.Dirs; d++ {
		names, err := s.ReadDir(e, dir(d))
		if err != nil {
			return res, err
		}
		for _, name := range names {
			data, err := s.ReadFile(e, dir(d)+"/"+name)
			if err != nil {
				return res, err
			}
			res.BytesRead += len(data)
			dst := fmt.Sprintf("/copy/%d-%s", d, name)
			if err := s.Create(e, dst); err != nil {
				return res, err
			}
			if err := s.WriteFile(e, dst, data); err != nil {
				return res, err
			}
			res.FilesCopied++
			res.BytesWritten += len(data)
		}
	}

	// Phase 3: compile every source file into /obj.
	if err := s.Mkdir(e, "/obj"); err != nil {
		return res, err
	}
	for d := 0; d < cfg.Dirs; d++ {
		for f := 0; f < cfg.FilesPerDir; f++ {
			src, err := s.ReadFile(e, file(d, f))
			if err != nil {
				return res, err
			}
			res.BytesRead += len(src)
			obj := compile(e, src)
			dst := fmt.Sprintf("/obj/%d-%d.o", d, f)
			if err := s.Create(e, dst); err != nil {
				return res, err
			}
			if err := s.WriteFile(e, dst, obj); err != nil {
				return res, err
			}
			res.Objects++
			res.BytesWritten += len(obj)
		}
	}

	// Phase 4: search every source file for the needle.
	needle := []byte(cfg.Needle)
	for d := 0; d < cfg.Dirs; d++ {
		for f := 0; f < cfg.FilesPerDir; f++ {
			data, err := s.ReadFile(e, file(d, f))
			if err != nil {
				return res, err
			}
			res.BytesRead += len(data)
			e.ChargeALU(len(data) / 2) // scan
			if bytes.Contains(data, needle) {
				res.Matches++
			}
		}
	}

	// Phase 5: clean the copies.
	names, err := s.ReadDir(e, "/copy")
	if err != nil {
		return res, err
	}
	for _, name := range names {
		if err := s.Remove(e, "/copy/"+name); err != nil {
			return res, err
		}
	}
	if err := s.Remove(e, "/copy"); err != nil {
		return res, err
	}
	return res, nil
}
