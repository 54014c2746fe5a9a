// Package uxserver models CMU's user-level Unix server (Golub et al.): a
// multithreaded operating-system service running in user space on the same
// uniprocessor as its clients. Even single-threaded applications make
// requests of this server, so its internal synchronization — a mutex- and
// condition-variable-protected request queue plus the per-file locking in
// memfs — is where the paper's "indirect benefit" for single-threaded
// programs comes from (§5.3: text-format and afs-bench improve ~3% although
// they have one thread).
//
// Clients call the synchronous file operations; each call enqueues a
// request, wakes a worker thread, and blocks on a reply semaphore.
//
// The server comes in two request-plane shapes. Start builds the
// original single shared queue under one mutex — every submit and every
// drain crosses the same lock, which is the contention the paper's fast
// mutexes make cheap but cannot make parallel. StartPerCPU rebuilds the
// request plane on internal/percpu: each client enqueues on its home
// shard's MPSC queue with three restartable sequences and no lock,
// request descriptors come from a per-CPU free list, and one worker per
// shard drains in batches, stealing a whole batch from a sibling shard
// when its own queue is dry. The file operations themselves (memfs and
// its per-file locking) are identical in both shapes, so benchmarks
// comparing them isolate the request plane.
package uxserver

import (
	"errors"

	"repro/internal/cthreads"
	"repro/internal/memfs"
	"repro/internal/obs"
	"repro/internal/percpu"
	"repro/internal/uniproc"
)

// ErrStopped is returned by every file operation submitted after
// Shutdown has marked the server stopped.
var ErrStopped = errors.New("uxserver: server stopped")

// op identifies a request type.
type op int

const (
	opRead op = iota
	opReadAt
	opWrite
	opAppend
	opCreate
	opMkdir
	opRemove
	opReadDir
	opStat
)

type request struct {
	op   op
	path string
	data []byte
	off  int
	buf  []byte

	// reply
	done  *cthreads.Semaphore
	out   []byte
	names []string
	n     int
	isDir bool
	size  int
	err   error
}

// Server is a running multithreaded file service.
type Server struct {
	pkg      *cthreads.Pkg
	fs       *memfs.FS
	mu       *cthreads.Mutex
	nonEmpty *cthreads.Cond
	queue    []*request
	stopped  bool
	workers  int

	// Per-CPU request plane (nil in single-queue mode).
	dom       *percpu.Domain
	pq        *percpu.Queue
	slots     *percpu.FreeList
	bell      []*cthreads.Semaphore // one doorbell per shard
	table     []*request            // descriptor handle → in-flight request
	inflight  int                   // accepted but not yet replied-to (both planes)
	bellsRung bool                  // Shutdown has rung the workers out

	// Requests counts client calls accepted.
	Requests uint64

	// Passage, when non-nil, records the cycle cost of each completed
	// request (submit to reply) as seen by the client.
	Passage *obs.Histogram
}

// Start creates the server and forks its worker threads on proc. Call
// before proc.Run. The server owns fs for the duration.
func Start(proc *uniproc.Processor, pkg *cthreads.Pkg, fs *memfs.FS, workers int) *Server {
	if workers < 1 {
		workers = 1
	}
	s := &Server{
		pkg:      pkg,
		fs:       fs,
		mu:       pkg.NewMutex(),
		nonEmpty: pkg.NewCond(),
		workers:  workers,
	}
	for i := 0; i < workers; i++ {
		proc.Go("ux-worker", s.workerLoop)
	}
	return s
}

// StartPerCPU creates the server with the per-CPU request plane and
// forks one worker per shard on proc. Call before proc.Run. perShard is
// each shard's queue depth (and descriptor pool size); values below one
// get a sensible default.
func StartPerCPU(proc *uniproc.Processor, pkg *cthreads.Pkg, fs *memfs.FS, shards, perShard int) *Server {
	if shards < 1 {
		shards = 1
	}
	if perShard < 1 {
		perShard = 16
	}
	d := percpu.NewDomain(shards)
	s := &Server{
		pkg:     pkg,
		fs:      fs,
		workers: shards,
		dom:     d,
		pq:      percpu.NewQueue(d, perShard),
		slots:   percpu.NewFreeList(d, []int{1}, perShard),
		table:   make([]*request, shards*perShard),
	}
	for i := 0; i < shards; i++ {
		s.bell = append(s.bell, pkg.NewSemaphore(0))
		shard := i
		proc.Go("ux-worker", func(e *uniproc.Env) { s.percpuWorker(e, shard) })
	}
	return s
}

// Shards reports the request-plane width: the number of per-CPU shards,
// or the worker count in single-queue mode.
func (s *Server) Shards() int { return s.workers }

// QueueStats returns the per-CPU queue traffic counters (zero value in
// single-queue mode).
func (s *Server) QueueStats() percpu.QueueStats {
	if s.pq == nil {
		return percpu.QueueStats{}
	}
	return s.pq.Stats()
}

// percpuWorker is the per-shard consumer: it sleeps on its shard's
// doorbell, drains its own queue in one restartable detach, serves the
// whole batch, and — only when its own queue is dry — steals a batch
// from a sibling shard. Spurious doorbell credits (a batched drain
// consumes several enqueues' worth of signals) cost one empty poll each.
func (s *Server) percpuWorker(e *uniproc.Env, shard int) {
	s.dom.Pin(e, shard)
	for {
		s.bell[shard].P(e)
		if s.serveBatch(e, s.pq.Drain(e, shard)) {
			continue
		}
		stole := false
		for i := 1; i < s.dom.CPUs() && !stole; i++ {
			stole = s.serveBatch(e, s.pq.Steal(e, (shard+i)%s.dom.CPUs()))
		}
		if !stole && s.stopped {
			return
		}
	}
}

func (s *Server) serveBatch(e *uniproc.Env, batch []percpu.Word) bool {
	for _, h := range batch {
		r := s.table[h]
		s.table[h] = nil
		s.execute(e, r)
		s.slots.Free(e, int(h))
		r.done.V(e)
	}
	return len(batch) > 0
}

func (s *Server) workerLoop(e *uniproc.Env) {
	for {
		s.mu.Lock(e)
		for len(s.queue) == 0 && !s.stopped {
			s.nonEmpty.Wait(e, s.mu)
		}
		if len(s.queue) == 0 && s.stopped {
			s.mu.Unlock(e)
			return
		}
		r := s.queue[0]
		s.queue = s.queue[1:]
		e.ChargeALU(6)
		s.mu.Unlock(e)
		s.execute(e, r)
		r.done.V(e)
	}
}

func (s *Server) execute(e *uniproc.Env, r *request) {
	e.ChargeALU(30) // request decode/dispatch
	switch r.op {
	case opRead:
		r.out, r.err = s.fs.ReadFile(e, r.path)
	case opReadAt:
		r.n, r.err = s.fs.ReadAt(e, r.path, r.off, r.buf)
	case opWrite:
		r.err = s.fs.WriteFile(e, r.path, r.data)
	case opAppend:
		r.err = s.fs.Append(e, r.path, r.data)
	case opCreate:
		r.err = s.fs.Create(e, r.path)
	case opMkdir:
		r.err = s.fs.Mkdir(e, r.path)
	case opRemove:
		r.err = s.fs.Remove(e, r.path)
	case opReadDir:
		r.names, r.err = s.fs.ReadDir(e, r.path)
	case opStat:
		r.isDir, r.size, r.err = s.fs.Stat(e, r.path)
	default:
		r.err = errors.New("uxserver: unknown op")
	}
}

// submit enqueues r, wakes a worker, and waits for the reply.
func (s *Server) submit(e *uniproc.Env, r *request) {
	start := e.Now()
	r.done = s.pkg.NewSemaphore(0)
	if s.pq != nil {
		s.submitPerCPU(e, r)
	} else {
		s.submitLocked(e, r)
	}
	if s.Passage != nil && r.err != ErrStopped {
		s.Passage.Observe(e.Now() - start)
	}
}

func (s *Server) submitLocked(e *uniproc.Env, r *request) {
	s.mu.Lock(e)
	if s.stopped {
		s.mu.Unlock(e)
		r.err = ErrStopped
		return
	}
	s.queue = append(s.queue, r)
	s.inflight++
	s.Requests++
	e.ChargeALU(10) // marshal
	s.nonEmpty.Signal(e)
	s.mu.Unlock(e)
	r.done.P(e)
	s.inflight--
}

// submitPerCPU runs the lock-free request path: allocate a descriptor
// from the per-CPU free list, enqueue its handle on the home shard's
// queue, ring that shard's doorbell, wait for the reply. The stopped
// check and the inflight increment are adjacent plain operations with no
// simulated memory access between them, so (threads being cooperative
// between memops) a submit is either refused or fully counted — Shutdown
// can wait on inflight without a lock.
func (s *Server) submitPerCPU(e *uniproc.Env, r *request) {
	if s.stopped {
		r.err = ErrStopped
		return
	}
	s.inflight++
	s.Requests++
	cpu := s.dom.Home(e)
	h, ok := s.slots.Alloc(e, 1)
	for !ok {
		// Descriptor pool exhausted: backpressure until a worker frees one.
		e.Yield()
		h, ok = s.slots.Alloc(e, 1)
	}
	s.table[h] = r
	e.ChargeALU(10) // marshal
	s.pq.Enqueue(e, percpu.Word(h))
	s.bell[cpu].V(e)
	r.done.P(e)
	s.inflight--
}

// ReadFile reads a whole file through the server.
func (s *Server) ReadFile(e *uniproc.Env, path string) ([]byte, error) {
	r := &request{op: opRead, path: path}
	s.submit(e, r)
	return r.out, r.err
}

// ReadAt reads into buf at offset off, returning the byte count.
func (s *Server) ReadAt(e *uniproc.Env, path string, off int, buf []byte) (int, error) {
	r := &request{op: opReadAt, path: path, off: off, buf: buf}
	s.submit(e, r)
	return r.n, r.err
}

// WriteFile replaces a file's contents through the server.
func (s *Server) WriteFile(e *uniproc.Env, path string, data []byte) error {
	r := &request{op: opWrite, path: path, data: data}
	s.submit(e, r)
	return r.err
}

// Append appends to a file through the server.
func (s *Server) Append(e *uniproc.Env, path string, data []byte) error {
	r := &request{op: opAppend, path: path, data: data}
	s.submit(e, r)
	return r.err
}

// Create creates a file through the server.
func (s *Server) Create(e *uniproc.Env, path string) error {
	r := &request{op: opCreate, path: path}
	s.submit(e, r)
	return r.err
}

// Mkdir creates a directory through the server.
func (s *Server) Mkdir(e *uniproc.Env, path string) error {
	r := &request{op: opMkdir, path: path}
	s.submit(e, r)
	return r.err
}

// Remove deletes a file or empty directory through the server.
func (s *Server) Remove(e *uniproc.Env, path string) error {
	r := &request{op: opRemove, path: path}
	s.submit(e, r)
	return r.err
}

// ReadDir lists a directory through the server.
func (s *Server) ReadDir(e *uniproc.Env, path string) ([]string, error) {
	r := &request{op: opReadDir, path: path}
	s.submit(e, r)
	return r.names, r.err
}

// Stat reports a node's metadata through the server.
func (s *Server) Stat(e *uniproc.Env, path string) (isDir bool, size int, err error) {
	r := &request{op: opStat, path: path}
	s.submit(e, r)
	return r.isDir, r.size, r.err
}

// Shutdown stops the server. Its contract, precisely: every request
// whose submit was accepted before Shutdown marked the server stopped is
// still served and its client woken with the reply — in BOTH request
// planes, Shutdown waits for that drain, so on return the plane is
// quiescent (no queued entries, no client still blocked on a reply) and
// the workers are exiting. Every submit after the stop mark fails with
// ErrStopped without being enqueued. Shutdown is idempotent: concurrent
// or repeated calls all wait for the same quiescence, and the worker
// wake-ups fire exactly once. Call from a client thread when the
// workload is finished so the processor can halt.
func (s *Server) Shutdown(e *uniproc.Env) {
	if s.pq != nil {
		s.stopped = true
		for s.inflight > 0 {
			e.Yield()
		}
		if !s.bellsRung {
			s.bellsRung = true
			for _, b := range s.bell {
				b.V(e)
			}
		}
		return
	}
	s.mu.Lock(e)
	first := !s.stopped
	s.stopped = true
	if first {
		s.nonEmpty.Broadcast(e)
	}
	s.mu.Unlock(e)
	// Drain: wait until every accepted request has been served and its
	// client woken. inflight covers the window from accept to the
	// client's return from the reply wait, so this cannot return while a
	// ring entry is still in flight.
	for s.inflight > 0 {
		e.Yield()
	}
}
