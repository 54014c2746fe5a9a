package bench

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/obs"
	"repro/internal/qlock"
	"repro/internal/vmach/smp"
)

// The RMR table is the queue-lock counterpart of TableSMP: the
// recoverable-mutual-exclusion literature grades locks by remote
// memory references per passage, and the queue locks' claim is that
// this metric is O(1) in the contender count — each waiter spins on
// its own cache line and is woken by one targeted store — while a
// global spinlock's grows with every CPU polling the shared word.

// RMRConfig parametrizes the RMR sweep.
type RMRConfig struct {
	CPUList []int      // CPU counts to sweep (one contender per CPU)
	Iters   int        // passages per contender
	Modes   []smp.Mode // RMR counting modes
	Seed    uint64     // seeds the recovery section's kill schedules
	Kills   int        // kill schedules per mode in the recovery section
	// MaxCycles bounds every individual run; 0 uses the kernel default.
	MaxCycles uint64
}

// DefaultRMRConfig returns the configuration `rasbench -table rmr` and
// `make rmr` run.
func DefaultRMRConfig() RMRConfig {
	return RMRConfig{
		CPUList: []int{1, 2, 3, 4, 6, 8},
		Iters:   40,
		Modes:   []smp.Mode{smp.CC, smp.DSM},
		Seed:    1,
		Kills:   32,
	}
}

// RMRRow is one (lock, CPU count, mode) cell. The latency quantiles
// are passage latencies in cycles, reconstructed from the guest-side
// log2 histograms (so they are bucket upper edges, not exact values).
// The repair counters are zero everywhere except the recovery
// section's rows, whose Kills field says how many seeded kill
// schedules the row aggregates.
type RMRRow struct {
	Lock             string  `json:"lock"`
	CPUs             int     `json:"cpus"`
	Mode             string  `json:"mode"`
	Passages         uint64  `json:"passages"`
	CyclesPerPassage float64 `json:"cycles_per_passage"`
	MicrosPerPassage float64 `json:"micros_per_passage"`
	RMRs             uint64  `json:"rmrs"`
	RMRPerPassage    float64 `json:"rmr_per_passage"`
	LatP50           uint64  `json:"lat_p50"`
	LatP95           uint64  `json:"lat_p95"`
	LatP99           uint64  `json:"lat_p99"`
	Kills            int     `json:"kills,omitempty"`
	Repairs          uint64  `json:"repairs,omitempty"`
	Splices          uint64  `json:"splices,omitempty"`
	Scans            uint64  `json:"scans,omitempty"`
}

func rmrRow(res *qlock.Result) RMRRow {
	row := RMRRow{
		Lock:     res.Variant.String(),
		CPUs:     res.CPUs,
		Mode:     res.Mode.String(),
		Passages: res.Passages,
		RMRs:     res.RMRs,
		LatP50:   res.Lat.P50(),
		LatP95:   res.Lat.P95(),
		LatP99:   res.Lat.P99(),
		Repairs:  res.Repairs,
		Splices:  res.Splices,
		Scans:    res.Scans,
	}
	if res.Passages > 0 {
		row.CyclesPerPassage = float64(res.Cycles) / float64(res.Passages)
		row.MicrosPerPassage = arch.SMP().Micros(res.Cycles) / float64(res.Passages)
		row.RMRPerPassage = float64(res.RMRs) / float64(res.Passages)
	}
	return row
}

// TableRMR sweeps every lock variant over CPU count × coherence mode,
// one contender per CPU, and appends a recovery section: recoverable
// MCS under seeded single-kill schedules, which must stay exact while
// the repair counters account for the damage.
func TableRMR(h *Harness, cfg RMRConfig) ([]RMRRow, error) {
	if len(cfg.CPUList) == 0 {
		cfg.CPUList = DefaultRMRConfig().CPUList
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 40
	}
	if len(cfg.Modes) == 0 {
		cfg.Modes = []smp.Mode{smp.CC, smp.DSM}
	}
	var rows []RMRRow
	for _, mode := range cfg.Modes {
		for _, v := range qlock.Variants() {
			for _, cpus := range cfg.CPUList {
				r, err := qlock.New(qlock.Config{
					Variant:   v,
					CPUs:      cpus,
					Iters:     cfg.Iters,
					Mode:      mode,
					MaxCycles: cfg.MaxCycles,
				})
				if err == nil {
					err = h.Run(r.Sys)
				}
				var res *qlock.Result
				if err == nil {
					res, err = r.Collect()
				}
				if err != nil {
					return nil, fmt.Errorf("bench: rmr %s/%dcpu/%s: %w", v, cpus, mode, err)
				}
				rows = append(rows, rmrRow(res))
			}
		}
	}
	for _, mode := range cfg.Modes {
		row, err := rmrKillRow(h, cfg, mode)
		if err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// rmrKillRow aggregates cfg.Kills seeded kill schedules against the
// recoverable MCS lock on a rendezvoused two-CPU queue. Each schedule
// kills whichever worker is running at one derived instruction
// ordinal; exactness must hold on every one (modulo the worker that
// dies inside its critical section between the counter increment and
// its own completion count).
func rmrKillRow(h *Harness, cfg RMRConfig, mode smp.Mode) (RMRRow, error) {
	kills := cfg.Kills
	if kills <= 0 {
		kills = 32
	}
	agg := RMRRow{Lock: "rmcs under kill", CPUs: 2, Mode: mode.String(), Kills: kills}
	var cycles uint64
	lat := obs.NewHistogram(obs.ExpBuckets(1, qlock.LatBuckets))
	for i := 0; i < kills; i++ {
		d := chaos.Derive(cfg.Seed, uint64(mode), uint64(i))
		cpu := int(d >> 32 & 1)
		at := d%1500 + 1
		r, err := qlock.New(qlock.Config{
			Variant:   qlock.RMCS,
			CPUs:      2,
			Iters:     4,
			Mode:      mode,
			MaxCycles: cfg.MaxCycles,
			Workers:   []qlock.WorkerOpt{qlock.HoldFor(1), qlock.WaitHeld(0)},
			Faults: func(c int) chaos.Injector {
				if c != cpu {
					return nil
				}
				return chaos.OneShot{Point: chaos.PointStep, N: at, Action: chaos.Action{Kill: true}}
			},
		})
		if err != nil {
			return RMRRow{}, fmt.Errorf("bench: rmr kill %d: %w", i, err)
		}
		if err := h.Run(r.Sys); err != nil {
			return RMRRow{}, fmt.Errorf("bench: rmr kill %d (cpu%d@%d): %w", i, cpu, at, err)
		}
		res, err := r.Collect()
		if err != nil && (res == nil || res.Counter != res.Passages+1) {
			return RMRRow{}, fmt.Errorf("bench: rmr kill %d (cpu%d@%d): %w", i, cpu, at, err)
		}
		agg.Passages += res.Passages
		agg.RMRs += res.RMRs
		agg.Repairs += res.Repairs
		agg.Splices += res.Splices
		agg.Scans += res.Scans
		cycles += res.Cycles
		bounds, cum := res.Lat.Buckets()
		var prev uint64
		for b := range cum {
			if b+1 < len(bounds) { // bounds() appends an overflow edge last
				lat.ObserveN(bounds[b], cum[b]-prev)
			}
			prev = cum[b]
		}
	}
	agg.LatP50, agg.LatP95, agg.LatP99 = lat.P50(), lat.P95(), lat.P99()
	if agg.Passages > 0 {
		agg.CyclesPerPassage = float64(cycles) / float64(agg.Passages)
		agg.MicrosPerPassage = arch.SMP().Micros(cycles) / float64(agg.Passages)
		agg.RMRPerPassage = float64(agg.RMRs) / float64(agg.Passages)
	}
	return agg, nil
}

// FormatRMR renders the RMR table.
func FormatRMR(rows []RMRRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-15s %5s %5s %9s %12s %13s %8s %8s %8s %8s\n",
		"Lock", "CPUs", "Mode", "Passages", "Cycles/pass", "RMR/passage", "p50", "p95", "p99", "Repairs")
	for _, r := range rows {
		rep := ""
		if r.Kills > 0 {
			rep = fmt.Sprintf("%d", r.Repairs+r.Splices)
		}
		fmt.Fprintf(&b, "%-15s %5d %5s %9d %12.1f %13.3f %8d %8d %8d %8s\n",
			r.Lock, r.CPUs, r.Mode, r.Passages,
			r.CyclesPerPassage, r.RMRPerPassage, r.LatP50, r.LatP95, r.LatP99, rep)
	}
	return b.String()
}
