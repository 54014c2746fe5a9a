package bench

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/mcheck"
)

// PersistConfig parametrizes the persistence table (experiment E23): the
// crash-at-persist-boundary sweeps on both substrates, the under-flushed
// control, and the exhaustive flush-boundary walk.
type PersistConfig struct {
	Seed uint64
	// Crashes is the per-substrate number of seeded volatile-crash points.
	Crashes int
	Workers int
	Iters   int
}

// DefaultPersistConfig returns the configuration `rasbench -table persist`
// and `make persist` run.
func DefaultPersistConfig() PersistConfig {
	return PersistConfig{Seed: 1, Crashes: 24, Workers: 2, Iters: 6}
}

// PersistRow is one scenario outcome of the persistence table.
type PersistRow struct {
	Scenario string `json:"scenario"`
	Seed     uint64 `json:"seed"`
	Crashes  int    `json:"crashes"`
	Repairs  uint64 `json:"repairs"`
	// MaxLoss is the largest number of committed increments a single
	// crash discarded; the well-flushed protocol bounds it at 1.
	MaxLoss int64  `json:"max_loss"`
	Outcome string `json:"outcome"`
}

// TablePersist runs the NVRAM persistence validation (E23):
//
//   - vmach crash sweep: the persist model's guest crashed (volatile
//     tier discarded) at seeded persist-op ordinals, rebooted over the
//     surviving NVM, its bounded-loss and exact-recovery audits run at
//     every crash;
//   - vmach under-flush control: the same sweep over the deliberately
//     under-flushed variant must report persist-loss, a loss greater
//     than one;
//   - uniproc crash sweep: the uni-persist model, core.PersistentMutex
//     with a caller-persisted counter, crashed the same way;
//   - flush-boundary walk: the model checker's exhaustive K=1 enumeration
//     of a volatile crash at EVERY persist-operation boundary, which must
//     pass with zero violations.
//
// Any failure is returned as an error whose text is the .sched file that
// replays it.
func TablePersist(h *Harness, cfg PersistConfig) ([]PersistRow, error) {
	if cfg.Crashes <= 0 {
		cfg.Crashes = 1
	}
	var rows []PersistRow

	// The crash sweeps: the persist and uni-persist models' instances,
	// each crashed once at a seeded persist-op ordinal. The control is
	// the planted under-flushed variant, which must lose more than one
	// increment.
	w, n := strconv.Itoa(cfg.Workers), strconv.Itoa(cfg.Iters)
	for _, leg := range []struct {
		scenario, model, expect, outcome string
		params                           map[string]string
		salt                             uint64
	}{
		{"vmach/crash-sweep", "persist", "", "loss <= 1, exact recovery",
			map[string]string{"workers": w, "iters": n, "variant": "flushed"}, 0x58},
		{"vmach/underflush-control", "persist", "persist-loss", "loss detected (control)",
			map[string]string{"workers": w, "iters": n, "variant": "underflush"}, 0x59},
		{"uniproc/crash-sweep", "uni-persist", "", "loss <= 1, exact recovery",
			map[string]string{"workers": w, "iters": n}, 0x5A},
	} {
		out, err := h.sweep(leg.scenario, leg.model, leg.params,
			cfg.Crashes, leg.expect, crashPlan(cfg.Seed, leg.salt, mcheck.ActCrashVolatile))
		if err != nil {
			return nil, err
		}
		rows = append(rows, PersistRow{Scenario: leg.scenario, Seed: cfg.Seed, Crashes: cfg.Crashes,
			Repairs: out.Repairs, MaxLoss: out.MaxLoss, Outcome: leg.outcome})
	}

	// Exhaustive flush-boundary walk via the model checker.
	schedules, err := exhaustiveK1("mcheck/flush-boundaries", "persist", map[string]string{"workers": "1", "iters": "2"})
	if err != nil {
		return nil, err
	}
	rows = append(rows, PersistRow{Scenario: "mcheck/flush-boundaries",
		Crashes: schedules - 1, MaxLoss: 0,
		Outcome: "exhaustive K=1, zero violations"})
	return rows, nil
}

// FormatPersist renders the persistence table.
func FormatPersist(rows []PersistRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-26s %-10s %8s %8s %8s  %s\n",
		"Scenario", "Seed", "Crashes", "Repairs", "MaxLoss", "Outcome")
	for _, r := range rows {
		seed := "-"
		if r.Seed != 0 {
			seed = fmt.Sprintf("%#x", r.Seed)
		}
		fmt.Fprintf(&b, "%-26s %-10s %8d %8d %8d  %s\n",
			r.Scenario, seed, r.Crashes, r.Repairs, r.MaxLoss, r.Outcome)
	}
	return b.String()
}
