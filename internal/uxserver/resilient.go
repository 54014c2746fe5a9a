// The resilient request plane: the server shape that survives the
// supervisor (internal/resilience). Where the classic Server assumes the
// machine lives as long as the workload, ResilientServer assumes the
// machine dies — repeatedly, at any persist boundary — and makes every
// client-visible effect exactly-once across the reboots:
//
//   - each request is (client, seq), with seq assigned by the client and
//     retried verbatim until acknowledged — after a timeout, an overload
//     shed, or a whole machine crash;
//   - the server write-ahead logs an OpEffect record (flushed + fenced)
//     BEFORE the in-place update, then persists the per-client applied
//     sequence BEFORE the effect counter;
//   - boot-time Recover replays the log deduplicating against the applied
//     table, and recomputes the effect counter from the table (it is
//     derived state), so no crash point — including a torn split between
//     the table and the counter — can double- or un-apply an effect;
//   - the serve path answers an already-applied sequence with a duplicate
//     acknowledgment instead of re-applying, which is what makes client
//     retries (same-boot timeouts and cross-boot resubmissions) safe.
//
// Availability machinery rides on the same plane: per-request deadlines
// (the client stops waiting and retries), admission control (requests
// beyond Shards*perShard in flight are shed with ErrOverload), and a degraded
// read-only mode (the supervisor's crash-loop demotion) in which every
// mutation is shed with ErrDegraded while reads still serve.
package uxserver

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/cthreads"
	"repro/internal/journal"
	"repro/internal/percpu"
	"repro/internal/uniproc"
)

// Errors of the resilient plane.
var (
	// ErrOverload: admission control shed the request (too many in
	// flight, no descriptor, or a full ring). Retry after a backoff.
	ErrOverload = errors.New("uxserver: overloaded, request shed")
	// ErrDeadline: the client-side reply deadline expired. The request
	// may still be served; retrying the same sequence number is safe.
	ErrDeadline = errors.New("uxserver: request deadline expired")
	// ErrDegraded: the server is in read-only degraded mode.
	ErrDegraded = errors.New("uxserver: server degraded, mutations shed")
)

// Each shard's ring holds perShard requests, and admission control sheds
// a submit once Shards*perShard are accepted but unreplied. A client
// stops waiting for its reply after replyDeadline cycles.
const (
	perShard      = 8
	replyDeadline = 20000
)

// ResilientConfig shapes the resilient request plane.
type ResilientConfig struct {
	// Clients is the number of client identities (the applied table's
	// width).
	Clients int
	// Shards is the per-CPU plane width.
	Shards int
	// NoDedup plants the missing-dedup bug the model checker must
	// catch: replay applies every logged record as a fresh increment and
	// the serve path never checks the applied table, so a retry across a
	// crash — or a replayed log — double-applies. The zero value is the
	// correct server; never set outside verification.
	NoDedup bool
}

// ResilientStats counts the plane's paths (volatile; per boot).
type ResilientStats struct {
	Applies     uint64 // effects applied in place
	DupAcks     uint64 // already-applied sequences acknowledged
	Replayed    uint64 // log records replayed into the table at Recover
	ReplaySkips uint64 // log records deduplicated at Recover
	Shed        uint64 // admission-control and degraded-mode refusals
	Timeouts    uint64 // client deadlines expired
}

// rrequest is one in-flight resilient request.
type rrequest struct {
	client int
	seq    uint64
	done   bool
	err    error
}

// ResilientServer is the exactly-once effect server. Its durable state —
// the WAL arena, the per-client applied table, and the effect counter —
// is caller-provided so it survives processor instances: a reboot builds
// a fresh ResilientServer over the same words.
type ResilientServer struct {
	pkg     *cthreads.Pkg
	cfg     ResilientConfig
	arena   []uniproc.Word
	applied []uniproc.Word
	effects *uniproc.Word
	log     *journal.Log

	recovered bool
	degraded  bool
	stopped   bool
	bellsRung bool
	inflight  int

	dom   *percpu.Domain
	pq    *percpu.Queue
	slots *percpu.FreeList
	bell  []*cthreads.Semaphore
	table []*rrequest

	stats ResilientStats
}

// NewResilient wires a resilient server over its durable words. applied
// must have cfg.Clients entries. Nothing touches simulated memory here:
// recovery is Recover, and workers fork in Start — both run inside the
// machine so their persist operations land in the crashable ordinal
// space.
func NewResilient(pkg *cthreads.Pkg, cfg ResilientConfig, arena, applied []uniproc.Word, effects *uniproc.Word) *ResilientServer {
	if cfg.Clients < 1 {
		cfg.Clients = 1
	}
	if cfg.Shards < 1 {
		cfg.Shards = 1
	}
	if len(applied) != cfg.Clients {
		panic("uxserver: applied table width != cfg.Clients")
	}
	d := percpu.NewDomain(cfg.Shards)
	s := &ResilientServer{
		pkg:     pkg,
		cfg:     cfg,
		arena:   arena,
		applied: applied,
		effects: effects,
		dom:     d,
		pq:      percpu.NewQueue(d, perShard),
		slots:   percpu.NewFreeList(d, []int{1}, perShard),
		table:   make([]*rrequest, cfg.Shards*perShard),
	}
	for i := 0; i < cfg.Shards; i++ {
		s.bell = append(s.bell, pkg.NewSemaphore(0))
	}
	return s
}

// Recovered reports whether boot-time recovery has completed — the
// supervisor reads it (from the harness, after a crash) to classify the
// crash as inside or outside recovery.
func (s *ResilientServer) Recovered() bool { return s.recovered }

// SetDegraded switches read-only degraded mode (the supervisor's
// crash-loop demotion): mutations are shed with ErrDegraded, reads still
// serve.
func (s *ResilientServer) SetDegraded(d bool) { s.degraded = d }

// Stats returns this boot's path counters.
func (s *ResilientServer) Stats() ResilientStats { return s.stats }

// Log returns the mounted WAL (nil before Recover).
func (s *ResilientServer) Log() *journal.Log { return s.log }

func clientPath(c int) string { return "c" + strconv.Itoa(c) }

// Recover mounts the WAL over the NVM arena and replays it into the
// applied table, deduplicating per client, then recomputes the effect
// counter from the table. Every step is idempotent, so a crash inside
// Recover just means the next boot recovers again. Call from the main
// thread before Start.
func (s *ResilientServer) Recover(e *uniproc.Env) error {
	l, recs, err := journal.Mount(e, s.arena, journal.Options{})
	if err != nil {
		return err
	}
	s.log = l
	for _, rec := range recs {
		if rec.Kind != journal.OpEffect {
			continue
		}
		c, err := strconv.Atoi(rec.Path[1:])
		if err != nil || c < 0 || c >= len(s.applied) || len(rec.Data) != 4 {
			return fmt.Errorf("uxserver: malformed effect record %d %q", rec.Seq, rec.Path)
		}
		seq := uint64(binary.LittleEndian.Uint32(rec.Data))
		e.ChargeALU(4)
		if !s.cfg.NoDedup {
			if uint64(e.Load(&s.applied[c])) >= seq {
				s.stats.ReplaySkips++
				continue
			}
			e.Store(&s.applied[c], uniproc.Word(seq))
			e.Flush(&s.applied[c])
			s.stats.Replayed++
		} else {
			// Planted missing-dedup: every record replays as a fresh
			// increment, so anything already applied in place lands twice.
			e.Store(&s.applied[c], uniproc.Word(seq))
			e.Flush(&s.applied[c])
			v := e.Load(s.effects)
			e.Store(s.effects, v+1)
			e.Flush(s.effects)
			s.stats.Replayed++
		}
	}
	if !s.cfg.NoDedup {
		// The counter is derived state — recompute it from the table so
		// a torn split between applied[] and effects self-heals.
		var sum uniproc.Word
		for c := range s.applied {
			sum += e.Load(&s.applied[c])
			e.ChargeALU(1)
		}
		e.Store(s.effects, sum)
		e.Flush(s.effects)
	}
	e.Fence()
	s.recovered = true
	return nil
}

// Start forks the shard workers. Call from the main thread after
// Recover, before any client submits.
func (s *ResilientServer) Start(e *uniproc.Env) {
	for i := 0; i < s.cfg.Shards; i++ {
		shard := i
		e.Fork("rux-worker", func(e *uniproc.Env) { s.worker(e, shard) })
	}
}

func (s *ResilientServer) worker(e *uniproc.Env, shard int) {
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

func (s *ResilientServer) serveBatch(e *uniproc.Env, batch []percpu.Word) bool {
	for _, h := range batch {
		r := s.table[h]
		s.table[h] = nil
		s.serve(e, r)
		s.slots.Free(e, int(h))
	}
	return len(batch) > 0
}

// serve applies one request exactly once: dedup check, write-ahead
// record (flushed + fenced by Append), applied-table entry, then the
// effect — each persist step ordered after the one that makes it safe.
func (s *ResilientServer) serve(e *uniproc.Env, r *rrequest) {
	e.ChargeALU(20) // decode/dispatch
	if !s.cfg.NoDedup && uint64(e.Load(&s.applied[r.client])) >= r.seq {
		s.stats.DupAcks++
		r.done = true
		return
	}
	var data [4]byte
	binary.LittleEndian.PutUint32(data[:], uint32(r.seq))
	if _, err := s.log.Append(e, journal.OpEffect, clientPath(r.client), data[:]); err != nil {
		r.err = err
		r.done = true
		return
	}
	e.Store(&s.applied[r.client], uniproc.Word(r.seq))
	e.Flush(&s.applied[r.client])
	e.Fence()
	v := e.Load(s.effects)
	e.Store(s.effects, v+1)
	e.Flush(s.effects)
	e.Fence()
	s.stats.Applies++
	r.done = true
}

// Apply submits effect (client, seq) and waits for the acknowledgment,
// up to the deadline. nil means the effect is durably applied (now or by
// an earlier life of this sequence number). ErrOverload, ErrDegraded and
// ErrDeadline all mean "retry the same seq later"; the dedup protocol
// makes that retry idempotent.
func (s *ResilientServer) Apply(e *uniproc.Env, client int, seq uint64) error {
	if s.stopped {
		return ErrStopped
	}
	if s.degraded {
		s.stats.Shed++
		return ErrDegraded
	}
	if s.inflight >= s.cfg.Shards*perShard {
		s.stats.Shed++
		return ErrOverload
	}
	s.inflight++
	cpu := s.dom.Home(e)
	h, ok := s.slots.Alloc(e, 1)
	if !ok {
		s.inflight--
		s.stats.Shed++
		return ErrOverload
	}
	r := &rrequest{client: client, seq: seq}
	s.table[h] = r
	e.ChargeALU(10) // marshal
	if !s.pq.TryEnqueue(e, percpu.Word(h)) {
		s.table[h] = nil
		s.slots.Free(e, int(h))
		s.inflight--
		s.stats.Shed++
		return ErrOverload
	}
	s.bell[cpu].V(e)
	deadline := e.Now() + replyDeadline
	for !r.done {
		if e.Now() >= deadline {
			s.inflight--
			s.stats.Timeouts++
			return ErrDeadline
		}
		e.Yield()
	}
	s.inflight--
	return r.err
}

// Effects reads the durable effect counter — the read operation degraded
// mode still serves.
func (s *ResilientServer) Effects(e *uniproc.Env) uniproc.Word {
	return e.Load(s.effects)
}

// Shutdown stops the plane: refuses new submits, waits until every
// accepted request has been replied to (in-flight entries drain), then
// rings the workers out. Idempotent — a second Shutdown waits for the
// same quiescence and returns without ringing the bells again.
func (s *ResilientServer) Shutdown(e *uniproc.Env) {
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
}
