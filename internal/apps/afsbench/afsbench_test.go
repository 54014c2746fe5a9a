package afsbench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/memfs"
	"repro/internal/uniproc"
	"repro/internal/uxserver"
)

func runScript(t *testing.T, cfg Config) (Result, *uxserver.Server, *uniproc.Processor) {
	t.Helper()
	p := uniproc.New(uniproc.Config{Quantum: 8192, JitterSeed: 19})
	pkg := cthreads.New(core.NewRAS())
	s := uxserver.Start(p, pkg, memfs.New(pkg), 2)
	cfg.Server = s
	var res Result
	var runErr error
	p.Go("script", func(e *uniproc.Env) {
		res, runErr = Run(e, cfg)
		if runErr == nil {
			// /copy must be gone; /obj must hold every object.
			if _, _, err := s.Stat(e, "/copy"); err == nil {
				t.Error("/copy not cleaned up")
			}
			names, err := s.ReadDir(e, "/obj")
			if err != nil || len(names) != res.Objects {
				t.Errorf("/obj entries = %v err=%v", names, err)
			}
		}
		s.Shutdown(e)
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return res, s, p
}

func TestScriptCounts(t *testing.T) {
	cfg := Config{Dirs: 3, FilesPerDir: 4, FileBytes: 1024}
	res, _, _ := runScript(t, cfg)
	want := cfg.Dirs * cfg.FilesPerDir
	if res.FilesCreated != want || res.FilesCopied != want || res.Objects != want {
		t.Errorf("res = %+v, want %d each", res, want)
	}
	if res.Matches != ExpectedMatches(cfg) {
		t.Errorf("matches = %d, want %d", res.Matches, ExpectedMatches(cfg))
	}
	// copy reads + compile reads + search reads.
	if res.BytesRead != 3*want*cfg.FileBytes {
		t.Errorf("bytes read = %d", res.BytesRead)
	}
	// create writes + copy writes + object writes.
	if res.BytesWritten != 3*want*cfg.FileBytes {
		t.Errorf("bytes written = %d", res.BytesWritten)
	}
}

func TestDefaultsApplied(t *testing.T) {
	res, _, _ := runScript(t, Config{})
	if res.FilesCreated != 12 { // 3 dirs x 4 files
		t.Errorf("FilesCreated = %d", res.FilesCreated)
	}
}

func TestServerTrafficGenerated(t *testing.T) {
	_, s, p := runScript(t, Config{Dirs: 2, FilesPerDir: 3, FileBytes: 512})
	if s.Requests < 40 {
		t.Errorf("requests = %d, workload too light", s.Requests)
	}
	if p.Stats.Blocks == 0 {
		t.Error("no blocking synchronization recorded")
	}
}

func TestSourceDeterministicAndNeedlePlanted(t *testing.T) {
	a := source(1, 2, 256, "needle")
	b := source(1, 2, 256, "needle")
	if string(a) != string(b) {
		t.Error("source not deterministic")
	}
	c := source(0, 0, 256, "needle") // (0+0)%3 == 0: planted
	if string(c[128:128+6]) != "needle" {
		t.Errorf("needle not planted: %q", c[120:140])
	}
}

func TestExpectedMatches(t *testing.T) {
	if got := ExpectedMatches(Config{Dirs: 3, FilesPerDir: 3}); got != 3 {
		t.Errorf("ExpectedMatches = %d, want 3", got)
	}
	if got := ExpectedMatches(Config{}); got != 4 {
		t.Errorf("default ExpectedMatches = %d, want 4", got)
	}
}

// ExpectedMatches returns the number of planted needles for a config.
func ExpectedMatches(cfg Config) int {
	if cfg.Dirs == 0 {
		cfg.Dirs = 3
	}
	if cfg.FilesPerDir == 0 {
		cfg.FilesPerDir = 4
	}
	n := 0
	for d := 0; d < cfg.Dirs; d++ {
		for f := 0; f < cfg.FilesPerDir; f++ {
			if (d+f)%3 == 0 {
				n++
			}
		}
	}
	return n
}
