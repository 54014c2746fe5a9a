// Package resilience closes the crash loop: a deterministic supervisor
// that runs a simulated machine under a seeded crash schedule, reboots
// it from NVM after every crash (clean, volatile, or torn) WITHOUT
// reloading volatile state, waits out a deterministic exponential
// backoff, and lets the program's own boot-time recovery repair its
// persistent structures before resuming the workload — over and over,
// until the workload completes or the restart budget runs out.
//
// The supervisor is substrate-agnostic: a World is one machine whose
// durable state survives across Boot calls. Two worlds ship with the
// package — VMWorld (the ISA-level resilient server guest rebooted over
// its surviving vmach NVM) and ServerWorld (the uniproc
// uxserver.ResilientServer rebuilt over its surviving words) — and the
// model checker's resilience model enumerates crash schedules over
// ServerWorld.
//
// On top of plain restart sits the availability policy:
//
//   - exponential backoff with deterministic jitter between reboots,
//     escalating only while crashes keep landing inside recovery (a
//     crash after recovery completed proved forward progress and resets
//     the escalation);
//   - crash-loop detection: CrashLoopK consecutive crashes inside
//     recovery demote the machine to degraded read-only boots, which
//     recover and probe the durable state but apply nothing;
//   - re-promotion hysteresis: RepromoteAfter clean degraded boots
//     promote back to normal service, and each demotion doubles the
//     next promotion's threshold, so a persistent fault cannot flap the
//     machine between modes.
package resilience

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/chaos"
)

// ErrRestartBudget is returned (wrapped) when the workload did not
// complete within Config.MaxBoots machine lives.
var ErrRestartBudget = errors.New("resilience: restart budget exhausted")

// Report is one machine life as the supervisor sees it.
type Report struct {
	// Crashed: the boot ended in an injected machine crash.
	Crashed bool
	// InRecovery: the crash landed before boot-time recovery completed.
	InRecovery bool
	// Completed: the whole workload is done (never true for degraded
	// boots, which apply nothing by design).
	Completed bool
	// Cycles is the boot's length; RecoveryCycles how much of it the
	// recovery path took (0 if the crash hit inside recovery).
	Cycles, RecoveryCycles uint64
	// PersistOps counts the boot's persist-ordinal space (0 where the
	// substrate does not expose it).
	PersistOps uint64
	// Err is a non-crash failure: an invariant violation or a machine
	// error. It aborts the supervisor.
	Err error
}

// World is one machine with durable state that survives Boot calls.
type World interface {
	// Boot runs one machine life: power on over the surviving durable
	// state, recover, and — unless degraded — resume the workload. inj
	// is this life's fault schedule (per-boot ordinals; nil for a clean
	// life). Degraded lives recover, probe read-only service, and exit.
	Boot(boot int, inj chaos.Injector, degraded bool) Report
	// Check audits the final durable state after the supervisor is done.
	Check() error
}

// Config shapes the supervision policy.
type Config struct {
	// Boots returns boot b's fault schedule (nil = clean). Typically
	// (*chaos.CrashPlan).Boot.
	Boots func(boot int) chaos.Injector
	// MaxBoots is the restart budget. Default 64.
	MaxBoots int
	// JitterSeed derives the deterministic backoff jitter.
	JitterSeed uint64
	// CrashLoopK demotes to degraded mode after this many consecutive
	// crashes inside recovery. Default 3.
	CrashLoopK int
	// RepromoteAfter is the base number of clean degraded boots before
	// re-promotion; each demotion doubles the effective threshold.
	// Default 2.
	RepromoteAfter int
}

func (c *Config) defaults() {
	if c.MaxBoots <= 0 {
		c.MaxBoots = 64
	}
	if c.CrashLoopK <= 0 {
		c.CrashLoopK = 3
	}
	if c.RepromoteAfter <= 0 {
		c.RepromoteAfter = 2
	}
}

// Outcome is the campaign summary.
type Outcome struct {
	Boots           int  // machine lives consumed
	Crashes         int  // lives ending in an injected crash
	RecoveryCrashes int  // crashes that landed inside recovery
	Demotions       int  // crash-loop demotions to degraded mode
	DegradedBoots   int  // clean degraded lives served
	Completed       bool // the workload finished
	// BackoffTotal is the cycles spent waiting between reboots;
	// UpCycles the cycles spent running. Availability is their ratio.
	BackoffTotal, UpCycles uint64
	// RecoveryP50 and RecoveryP95 summarize completed recoveries.
	RecoveryP50, RecoveryP95 uint64
	Reports                  []Report
}

// Availability is UpCycles / (UpCycles + BackoffTotal).
func (o Outcome) Availability() float64 {
	total := o.UpCycles + o.BackoffTotal
	if total == 0 {
		return 1
	}
	return float64(o.UpCycles) / float64(total)
}

func (o Outcome) String() string {
	return fmt.Sprintf("boots=%d crashes=%d(rec %d) demotions=%d degraded=%d completed=%v avail=%.4f recP50=%d recP95=%d",
		o.Boots, o.Crashes, o.RecoveryCrashes, o.Demotions, o.DegradedBoots,
		o.Completed, o.Availability(), o.RecoveryP50, o.RecoveryP95)
}

// backoffBase and backoffMax bound the reboot backoff in cycles.
const (
	backoffBase = 500
	backoffMax  = 1 << 17
)

// backoff computes the deterministic wait before boot b at escalation
// level attempt: min(backoffMax, backoffBase<<(attempt-1)) plus a seeded
// jitter of up to a quarter of itself, so synchronized restart storms
// de-correlate reproducibly.
func (c *Config) backoff(attempt int, boot int) uint64 {
	if attempt <= 0 {
		return 0
	}
	b := uint64(backoffBase)
	for i := 1; i < attempt && b < backoffMax; i++ {
		b <<= 1
	}
	if b > backoffMax {
		b = backoffMax
	}
	return b + chaos.Derive(c.JitterSeed, 0xB0FF, uint64(boot))%(b/4+1)
}

// Supervise runs w under cfg until the workload completes, the restart
// budget is exhausted (ErrRestartBudget), or a non-crash error aborts
// the campaign. The final World.Check audit runs in every exit path
// that has a consistent machine to audit.
func Supervise(w World, cfg Config) (Outcome, error) {
	cfg.defaults()
	var out Outcome
	attempt := 0      // backoff escalation level
	recLoop := 0      // consecutive crashes inside recovery
	degraded := false // current service mode
	healthy := 0      // clean degraded boots since demotion
	demoteScale := 1  // hysteresis: doubles per demotion
	var recoveries []uint64

	for boot := 0; boot < cfg.MaxBoots; boot++ {
		wait := cfg.backoff(attempt, boot)
		out.BackoffTotal += wait
		var inj chaos.Injector
		if cfg.Boots != nil {
			inj = cfg.Boots(boot)
		}
		rep := w.Boot(boot, inj, degraded)
		out.Reports = append(out.Reports, rep)
		out.Boots++
		out.UpCycles += rep.Cycles
		if rep.RecoveryCycles > 0 {
			recoveries = append(recoveries, rep.RecoveryCycles)
		}
		if rep.Err != nil {
			finishRecoveryStats(&out, recoveries)
			return out, fmt.Errorf("resilience: boot %d: %w", boot, rep.Err)
		}
		switch {
		case rep.Crashed:
			out.Crashes++
			if rep.InRecovery {
				// No forward progress this life: escalate.
				out.RecoveryCrashes++
				recLoop++
				attempt++
			} else {
				// Recovery completed before the crash — the machine is
				// making progress, so restart promptly and forget the
				// crash-loop streak.
				recLoop = 0
				attempt = 1
			}
			if recLoop >= cfg.CrashLoopK && !degraded {
				degraded = true
				out.Demotions++
				healthy = 0
			}
		case rep.Completed && !degraded:
			finishRecoveryStats(&out, recoveries)
			out.Completed = true
			return out, w.Check()
		default:
			// A clean life that did not finish the workload: either a
			// degraded read-only boot, or a normal boot the world chose
			// to end early. Both prove the machine boots and recovers.
			attempt = 0
			recLoop = 0
			if degraded {
				out.DegradedBoots++
				healthy++
				if healthy >= cfg.RepromoteAfter*demoteScale {
					degraded = false
					demoteScale *= 2
				}
			}
		}
	}
	finishRecoveryStats(&out, recoveries)
	return out, fmt.Errorf("%w: %d boots, %d crashes (%d in recovery), workload incomplete",
		ErrRestartBudget, out.Boots, out.Crashes, out.RecoveryCrashes)
}

func finishRecoveryStats(out *Outcome, recoveries []uint64) {
	if len(recoveries) == 0 {
		return
	}
	sort.Slice(recoveries, func(i, j int) bool { return recoveries[i] < recoveries[j] })
	out.RecoveryP50 = recoveries[len(recoveries)/2]
	out.RecoveryP95 = recoveries[len(recoveries)*95/100]
}
