package uxserver

import (
	"testing"

	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/memfs"
	"repro/internal/uniproc"
)

// withServer runs fn as a client thread against a fresh server with the
// given worker count, then shuts the server down.
func withServer(t *testing.T, workers int, fn func(e *uniproc.Env, s *Server)) (*Server, *uniproc.Processor) {
	t.Helper()
	p := uniproc.New(uniproc.Config{Quantum: 4096, JitterSeed: 11})
	pkg := cthreads.New(core.NewRAS())
	fs := memfs.New(pkg)
	s := Start(p, pkg, fs, workers)
	p.Go("client", func(e *uniproc.Env) {
		fn(e, s)
		s.Shutdown(e)
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	return s, p
}

func TestBasicFileOperations(t *testing.T) {
	s, _ := withServer(t, 2, func(e *uniproc.Env, s *Server) {
		if err := s.Mkdir(e, "/dir"); err != nil {
			t.Fatal(err)
		}
		if err := s.Create(e, "/dir/f"); err != nil {
			t.Fatal(err)
		}
		if err := s.WriteFile(e, "/dir/f", []byte("payload")); err != nil {
			t.Fatal(err)
		}
		got, err := s.ReadFile(e, "/dir/f")
		if err != nil || string(got) != "payload" {
			t.Fatalf("read = %q, %v", got, err)
		}
		if err := s.Append(e, "/dir/f", []byte("+more")); err != nil {
			t.Fatal(err)
		}
		isDir, size, err := s.Stat(e, "/dir/f")
		if err != nil || isDir || size != len("payload+more") {
			t.Errorf("stat = %v %d %v", isDir, size, err)
		}
		names, err := s.ReadDir(e, "/dir")
		if err != nil || len(names) != 1 || names[0] != "f" {
			t.Errorf("readdir = %v %v", names, err)
		}
		buf := make([]byte, 4)
		n, err := s.ReadAt(e, "/dir/f", 3, buf)
		if err != nil || n != 4 || string(buf) != "load" {
			t.Errorf("readat = %d %q %v", n, buf, err)
		}
		if err := s.Remove(e, "/dir/f"); err != nil {
			t.Fatal(err)
		}
	})
	if s.Requests < 9 {
		t.Errorf("Requests = %d", s.Requests)
	}
}

func TestErrorsPropagate(t *testing.T) {
	withServer(t, 1, func(e *uniproc.Env, s *Server) {
		if _, err := s.ReadFile(e, "/missing"); err == nil {
			t.Error("no error for missing file")
		}
		if err := s.Mkdir(e, "relative"); err == nil {
			t.Error("no error for bad path")
		}
	})
}

func TestMultipleClientsConcurrent(t *testing.T) {
	p := uniproc.New(uniproc.Config{Quantum: 1024, JitterSeed: 17})
	pkg := cthreads.New(core.NewRAS())
	fs := memfs.New(pkg)
	s := Start(p, pkg, fs, 3)
	const clients, files = 4, 10
	doneCount := 0
	var coord *cthreads.Semaphore = pkg.NewSemaphore(0)
	p.Go("spawner", func(e *uniproc.Env) {
		for c := 0; c < clients; c++ {
			cid := byte('a' + c)
			e.Fork("client", func(e *uniproc.Env) {
				dir := "/" + string(cid)
				if err := s.Mkdir(e, dir); err != nil {
					t.Errorf("mkdir: %v", err)
				}
				for i := 0; i < files; i++ {
					path := dir + "/" + string([]byte{'f', byte('0' + i)})
					if err := s.Create(e, path); err != nil {
						t.Errorf("create: %v", err)
					}
					if err := s.WriteFile(e, path, []byte{cid}); err != nil {
						t.Errorf("write: %v", err)
					}
				}
				names, err := s.ReadDir(e, dir)
				if err != nil || len(names) != files {
					t.Errorf("readdir %s: %v %v", dir, names, err)
				}
				doneCount++
				coord.V(e)
			})
		}
		for c := 0; c < clients; c++ {
			coord.P(e)
		}
		s.Shutdown(e)
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
	if doneCount != clients {
		t.Errorf("done = %d", doneCount)
	}
	if s.Requests < clients*(1+2*files+1) {
		t.Errorf("Requests = %d", s.Requests)
	}
}

func TestServerGeneratesSynchronization(t *testing.T) {
	// The point of the server model: a single-threaded client's file
	// traffic produces blocking synchronization (mutex/cond/semaphore)
	// inside the server.
	_, p := withServer(t, 2, func(e *uniproc.Env, s *Server) {
		s.Create(e, "/f")
		for i := 0; i < 50; i++ {
			s.Append(e, "/f", []byte("x"))
		}
	})
	if p.Stats.Blocks == 0 {
		t.Error("no blocking synchronization inside the server")
	}
}

func TestRequestsAfterShutdownFail(t *testing.T) {
	p := uniproc.New(uniproc.Config{})
	pkg := cthreads.New(core.NewRAS())
	s := Start(p, pkg, memfs.New(pkg), 1)
	p.Go("client", func(e *uniproc.Env) {
		s.Shutdown(e)
		if err := s.Create(e, "/f"); err == nil {
			t.Error("request accepted after shutdown")
		}
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWorkerCountClamped(t *testing.T) {
	p := uniproc.New(uniproc.Config{})
	pkg := cthreads.New(core.NewRAS())
	s := Start(p, pkg, memfs.New(pkg), 0) // clamped to 1
	p.Go("client", func(e *uniproc.Env) {
		if err := s.Create(e, "/f"); err != nil {
			t.Error(err)
		}
		s.Shutdown(e)
	})
	if err := p.Run(); err != nil {
		t.Fatal(err)
	}
}
