package mcheck

import (
	"errors"
	"fmt"

	"repro/internal/chaos"
	"repro/internal/journal"
	"repro/internal/resilience"
	"repro/internal/uniproc"
)

// The supervisor-in-the-loop model: the whole crash-restart stack —
// resilience.Supervise over the uniproc exactly-once server world — as
// one checkable system. The decision ordinal space is GLOBAL persist
// operations across every machine life of the campaign: each boot's
// injector is offset by the persist ops already consumed
// (chaos.Offset), so ordinal N uniquely names "the Nth flush/fence the
// campaign ever performs", wherever that falls — mid-workload, inside
// recovery, or inside a later life's recovery of an earlier crash. With
// K=2 the exhaustive walk therefore covers crash-during-recovery and
// the crash-loop demotion path, and a violating schedule is replayable
// as a one-line .sched like every other model.

// resilienceModel builds the model. variant=dedup is the shipped
// exactly-once server; variant=nodedup is the planted missing-dedup
// replay whose double-apply needs at least one crash to manifest (the
// empty schedule passes, so the shrinker's counterexample is a single
// decision). kind picks the crash flavor the explorer enumerates.
func resilienceModel(p map[string]string) (Model, error) {
	clients, err := paramInt(p, "clients")
	if err != nil {
		return nil, err
	}
	iters, err := paramInt(p, "iters")
	if err != nil {
		return nil, err
	}
	variant := p["variant"]
	if variant != "dedup" && variant != "nodedup" {
		return nil, fmt.Errorf("mcheck: resilience: unknown variant %q", variant)
	}
	prim := ActCrashVolatile
	switch p["kind"] {
	case "volatile":
	case "torn":
		prim = ActCrashTorn
	default:
		return nil, fmt.Errorf("mcheck: resilience: unknown kind %q", p["kind"])
	}
	return &model{name: "resilience", params: p, primary: prim, new: uniNew(func(ds []Decision, opt Options, vio *violations, _ *Outcome) uint64 {
		// base accumulates each life's persist ops, so the next life's
		// injector is offset into the global space.
		var base uint64
		w := resilience.NewServerWorld(resilience.ServerWorldConfig{
			Clients: clients,
			Iters:   iters,
			Shards:  1,
			NoDedup: variant == "nodedup",
			Run: func(p *uniproc.Processor) error {
				err := opt.run(p)
				base += p.PersistOps()
				return err
			},
		})
		inner := newInjector(chaos.PointPersist, ds)
		out, err := resilience.Supervise(w, resilience.Config{
			Boots:    func(boot int) chaos.Injector { return chaos.Offset(inner, base) },
			MaxBoots: 8, CrashLoopK: 2, RepromoteAfter: 1, JitterSeed: 1,
		})
		switch {
		case errors.Is(err, resilience.ErrRestartBudget):
			vio.add("stuck", "%v", err)
		case errors.Is(err, journal.ErrDirtyTail):
			// A boot's mount left debris past the log head.
			vio.add("journal-tail", "%v", err)
		case err != nil:
			// Per-boot audits and the final exactly-once accounting both
			// surface here (acked-but-lost, counter drift, double-apply).
			vio.add("exactly-once", "%v", err)
		case !out.Completed:
			vio.add("stuck", "campaign ended without completing: %v", out)
		}
		return base
	})}, nil
}
