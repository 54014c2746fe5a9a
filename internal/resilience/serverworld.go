package resilience

import (
	"errors"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/uniproc"
	"repro/internal/uxserver"
)

// ServerWorldConfig shapes the uniproc resilient-server world.
type ServerWorldConfig struct {
	// Clients and Iters define the workload: each client applies
	// exactly-once effects with sequence numbers 1..Iters.
	Clients, Iters int
	// Shards is the server's per-CPU plane width.
	Shards int
	// NoDedup runs the planted missing-dedup server (verification only
	// — the campaign must then FAIL its final audit).
	NoDedup bool
	// MaxCycles bounds one boot. Default 1 << 22.
	MaxCycles uint64
	// JitterSeed seeds the processor's scheduling jitter.
	JitterSeed uint64
	// Run runs every boot; nil means (*uniproc.Processor).Run.
	Run func(*uniproc.Processor) error
}

// The reply deadline, capped exponential retry backoff and timeslice,
// in cycles.
const (
	serverDeadline = 20000
	retryBase      = 200
	retryCap       = 5000
	serverQuantum  = 2048
)

func (c *ServerWorldConfig) defaults() {
	if c.Clients < 1 {
		c.Clients = 1
	}
	if c.Iters < 1 {
		c.Iters = 1
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.MaxCycles == 0 {
		c.MaxCycles = 1 << 22
	}
	if c.Run == nil {
		c.Run = (*uniproc.Processor).Run
	}
}

// ServerWorld is the runtime-substrate World: a uxserver.ResilientServer
// whose durable words — WAL arena, applied table, effect counter — live
// in the world and survive processor instances, plus the client fleet
// retrying its way through machine crashes. The clients themselves model
// the EXTERNAL world: their record of acknowledged sequence numbers
// (acked) survives every reboot, and the world audits after every boot
// that the machine never forgot an effect it acknowledged, and after
// every recovery that the mounted log's tail is zero in both tiers.
type ServerWorld struct {
	cfg   ServerWorldConfig
	arena []uniproc.Word
	// applied and effects are the server's durable words.
	applied []uniproc.Word
	effects uniproc.Word
	// acked[c] is the highest sequence number client c saw acknowledged.
	acked []uint64
	// stats accumulates the server's per-boot path counters across lives.
	stats uxserver.ResilientStats
}

// Stats returns the server path counters summed over every boot so far —
// sheds, deadline expiries, replays, dedup hits.
func (w *ServerWorld) Stats() uxserver.ResilientStats { return w.stats }

func (w *ServerWorld) addStats(s uxserver.ResilientStats) {
	w.stats.Applies += s.Applies
	w.stats.DupAcks += s.DupAcks
	w.stats.Replayed += s.Replayed
	w.stats.ReplaySkips += s.ReplaySkips
	w.stats.Shed += s.Shed
	w.stats.Timeouts += s.Timeouts
}

// NewServerWorld allocates the durable state for one machine.
func NewServerWorld(cfg ServerWorldConfig) *ServerWorld {
	cfg.defaults()
	return &ServerWorld{
		cfg:     cfg,
		arena:   make([]uniproc.Word, 1<<14),
		applied: make([]uniproc.Word, cfg.Clients),
		acked:   make([]uint64, cfg.Clients),
	}
}

// sleepUntil burns scheduler turns until the clock reaches t — the
// client-side retry backoff.
func sleepUntil(e *uniproc.Env, t uint64) {
	for e.Now() < t {
		e.Yield()
	}
}

// client is one retrying client: submit the oldest unacknowledged
// sequence number, back off (capped exponential) on sheds, deadline
// expiries, and degraded refusals, and record every acknowledgment. A
// machine crash simply unwinds the thread; the next boot's client
// resumes from acked, which is exactly a cross-boot retry.
func (w *ServerWorld) client(e *uniproc.Env, s *uxserver.ResilientServer, c int) {
	backoff := uint64(retryBase)
	for seq := w.acked[c] + 1; seq <= uint64(w.cfg.Iters); {
		err := s.Apply(e, c, seq)
		switch {
		case err == nil:
			w.acked[c] = seq
			seq++
			backoff = retryBase
		case errors.Is(err, uxserver.ErrOverload),
			errors.Is(err, uxserver.ErrDeadline),
			errors.Is(err, uxserver.ErrDegraded):
			sleepUntil(e, e.Now()+backoff)
			if backoff *= 2; backoff > retryCap {
				backoff = retryCap
			}
		default:
			// ErrStopped or a server-side failure: nothing more this life.
			return
		}
	}
}

// Boot runs one machine life. The processor, the thread package, and
// the server object are all volatile — only w's words survive.
func (w *ServerWorld) Boot(boot int, inj chaos.Injector, degraded bool) Report {
	p := uniproc.New(uniproc.Config{
		Quantum:    serverQuantum,
		MaxCycles:  w.cfg.MaxCycles,
		Faults:     inj,
		JitterSeed: w.cfg.JitterSeed + uint64(boot),
	})
	p.EnablePersistence()
	pkg := cthreads.New(core.NewRAS())
	s := uxserver.NewResilient(pkg, uxserver.ResilientConfig{
		Clients:  w.cfg.Clients,
		Shards:   w.cfg.Shards,
		Deadline: serverDeadline,
		NoDedup:  w.cfg.NoDedup,
	}, w.arena, w.applied, &w.effects)

	var rep Report
	var recErr error
	p.Go("main", func(e *uniproc.Env) {
		if recErr = s.Recover(e); recErr != nil {
			return
		}
		// The mount zeroed only one record's debris; that is sound only
		// while every word past the log's head is zero in both tiers.
		if recErr = s.Log().CheckTail(p); recErr != nil {
			return
		}
		rep.RecoveryCycles = e.Now()
		if degraded {
			// Degraded life: prove the durable state mounts and reads
			// serve, shed one probe mutation, and power down.
			s.SetDegraded(true)
			if got := s.Effects(e); uint64(got) > uint64(w.cfg.Clients*w.cfg.Iters) && !w.cfg.NoDedup {
				recErr = fmt.Errorf("degraded probe: effects %d beyond workload", got)
			}
			if err := s.Apply(e, 0, w.acked[0]+1); !errors.Is(err, uxserver.ErrDegraded) {
				recErr = fmt.Errorf("degraded probe: mutation not shed (err=%v)", err)
			}
			return
		}
		s.Start(e)
		done := 0
		for c := 0; c < w.cfg.Clients; c++ {
			c := c
			e.Fork("client", func(e *uniproc.Env) {
				w.client(e, s, c)
				if done++; done == w.cfg.Clients {
					s.Shutdown(e)
				}
			})
		}
	})
	err := w.cfg.Run(p)
	rep.Cycles = p.Clock()
	rep.PersistOps = p.PersistOps()
	w.addStats(s.Stats())
	switch {
	case errors.Is(err, uniproc.ErrMachineCrash):
		rep.Crashed = true
		rep.InRecovery = !s.Recovered()
		if rep.InRecovery {
			rep.RecoveryCycles = 0
		}
	case err != nil:
		rep.Err = err
		return rep
	}
	if recErr != nil {
		rep.Err = recErr
		return rep
	}
	// Acked-implies-durable: an acknowledged effect may NEVER be lost,
	// no matter where the crash landed — the W2 fence precedes the reply.
	for c := range w.acked {
		if uint64(w.applied[c]) < w.acked[c] {
			rep.Err = fmt.Errorf("client %d acked seq %d but durable applied=%d",
				c, w.acked[c], w.applied[c])
			return rep
		}
	}
	if !rep.Crashed && !degraded {
		all := true
		for c := range w.acked {
			all = all && w.acked[c] == uint64(w.cfg.Iters)
		}
		rep.Completed = all
	}
	return rep
}

// Check is the final audit, straight off the durable words — exact
// exactly-once accounting: every client's whole sequence range applied,
// the counter equal to the acknowledged total. It deliberately does NOT
// remount the log: recovery's own replay correctness is exercised by
// every boot of the campaign, and a final remount would replay the
// surviving records one extra time — which for the planted nodedup
// variant would manufacture a double-apply even in a campaign with zero
// crashes, hiding the fact that the bug needs a real reboot to fire.
func (w *ServerWorld) Check() error {
	want := uniproc.Word(w.cfg.Clients * w.cfg.Iters)
	if w.effects != want {
		return fmt.Errorf("final audit: effects = %d, want %d (exactly-once broken)", w.effects, want)
	}
	for c := range w.applied {
		if w.applied[c] != uniproc.Word(w.cfg.Iters) {
			return fmt.Errorf("final audit: client %d applied = %d, want %d",
				c, w.applied[c], w.cfg.Iters)
		}
	}
	return nil
}
