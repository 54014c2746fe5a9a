// Command rasbench regenerates the paper's evaluation tables on the
// simulated uniprocessor.
//
// Usage:
//
//	rasbench                     # all tables
//	rasbench -table 1            # just Table 1
//	rasbench -table 3 -scale 4   # Table 3 with 4x workloads
//	rasbench -iters 100000       # longer microbenchmark loops
//	rasbench -table 1 -json -    # machine-readable results on stdout
//	rasbench -table 2 -trace-out t2.json  # Perfetto trace of the runs
//
// Tables: 1 (microbenchmarks), 2 (thread management), 3 (applications),
// 4 (eight architectures), i860 (§7 lock bit), lamport (reservation
// protocols), holdups (§5.3 parthenon-10 analysis), ablation (§4.1 check
// placement), chaos (seeded fault-injection sweep; failures print a
// one-line seed reproducer, replayable with -seed/-level), recovery
// (recoverable mutual exclusion: thread-kill sweeps on both substrates,
// checkpoint replay, crash restore), persist (NVRAM persistence: volatile
// crash sweeps with bounded durability loss and exact recovery, plus the
// exhaustive crash-at-flush-boundary walk), smp (§7 hybrid RAS+spinlock
// vs pure spinlock vs ll/sc across CPU counts; -cpus picks the counts),
// server (the per-CPU request plane vs the mutex queue, over a million
// replayed requests on the SMP guest and the uniprocessor uxserver;
// -cpus picks both the CPU and shard counts), rmr (queue locks: remote
// memory references per passage across CPU counts and coherence modes,
// with the recoverable-MCS kill section; -cpus picks the counts),
// resilience (crash-restart supervision: the seeded 1000-crash vmach
// campaign, the uniproc exactly-once server campaign with retrying
// clients, the forced demotion/re-promotion cycle, and the exhaustive
// supervisor-in-the-loop model walk; campaign rows print one-line
// crashplan reproducers replayable with rasvm -demo resilience -plan).
//
// `rasbench -list` prints every table with its description and exits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/arch"
	"repro/internal/bench"
	"repro/internal/obs"
)

// benchOpts collects everything the CLI configures for one invocation.
type benchOpts struct {
	table        string
	iters, scale int
	seed         uint64
	level        float64
	timeout      uint64
	cpus         string // CPU counts for -table smp/server/rmr, e.g. "1,2,4"
	cpuList      []int  // cpus parsed by check; nil keeps each table's default
	jsonOut      string // per-table results as JSON ("-" = stdout)
	traceOut     string // Chrome trace-event JSON of every run ("-" = stdout)
	metrics      string // event-derived metrics dump ("-" = stdout)
	list         bool   // print the table catalog and exit
}

func main() {
	names := make([]string, len(tables))
	for i, t := range tables {
		names[i] = t.name
	}
	var o benchOpts
	flag.StringVar(&o.table, "table", "all", "which table to run: "+strings.Join(names, ",")+",all")
	flag.IntVar(&o.iters, "iters", 20000, "microbenchmark loop iterations (at least 10)")
	flag.IntVar(&o.scale, "scale", 1, "table 3 workload multiplier (at least 1)")
	flag.Uint64Var(&o.seed, "seed", 0, "chaos master seed (0 = default); use with -level to replay a failure")
	flag.Float64Var(&o.level, "level", 0, "chaos fault intensity in (0,1]; 0 sweeps the default levels")
	flag.Uint64Var(&o.timeout, "timeout", 0, "cycle budget per run (0 = substrate default); a livelocked guest exits nonzero. Legs that run an mcheck model (the uniproc kill and crash sweeps, the exhaustive walks) keep the checker's own budget")
	flag.StringVar(&o.jsonOut, "json", "", "write per-table results (name, run counters, rows) as JSON (\"-\" = stdout)")
	flag.StringVar(&o.traceOut, "trace-out", "", "write a Chrome trace-event JSON file of every substrate run (\"-\" = stdout; load in Perfetto)")
	flag.StringVar(&o.metrics, "metrics", "", "write a plain-text metrics dump derived from the event stream (\"-\" = stdout)")
	flag.StringVar(&o.cpus, "cpus", "", "comma-separated CPU counts for -table smp (default \"1,2,4\"), -table server (default \"1,2,4,8\"), and -table rmr (default \"1,2,3,4,6,8\")")
	flag.BoolVar(&o.list, "list", false, "print every table name with its description and exit")
	flag.Parse()

	if err := runOpts(o); err != nil {
		fmt.Fprintln(os.Stderr, "rasbench:", err)
		os.Exit(1)
	}
}

// table is one registry entry. run regenerates the table through the
// harness h and returns its rows, for the -json record, and its printed
// text.
type table struct {
	name, title string
	run         func(h *bench.Harness, o benchOpts) (rows any, text string, err error)
}

// entry builds a registry entry from a table's run and format functions.
func entry[R any](name, title string, run func(*bench.Harness, benchOpts) ([]R, error), format func([]R) string) table {
	return table{name, title, func(h *bench.Harness, o benchOpts) (any, string, error) {
		rows, err := run(h, o)
		if err != nil {
			return nil, "", err
		}
		return rows, format(rows), nil
	}}
}

// tableResult is one -json record: the aggregate substrate counters behind
// one regenerated table, plus that table's own rows.
type tableResult struct {
	Name string `json:"name"`
	bench.RunStats
	Rows any `json:"rows,omitempty"`
}

// seedOr is the -seed flag, or def when it is unset.
func (o benchOpts) seedOr(def uint64) uint64 {
	if o.seed != 0 {
		return o.seed
	}
	return def
}

// tables is the registry: -list, -table, -json and the tests iterate it,
// and `-table all` runs it in this order.
var tables = []table{
	entry("1", "Table 1: mutual exclusion microbenchmarks, DECstation 5000/200 (simulated)", func(h *bench.Harness, o benchOpts) ([]bench.T1Row, error) {
		return bench.Table1(h, o.iters)
	}, bench.FormatTable1),
	entry("2", "Table 2: thread management overhead, emulation vs R.A.S.", func(h *bench.Harness, o benchOpts) ([]bench.T2Row, error) {
		return bench.Table2(h, o.iters/10)
	}, bench.FormatTable2),
	entry("3", "Table 3: application performance", func(h *bench.Harness, o benchOpts) ([]bench.T3Row, error) {
		s := bench.DefaultScale()
		s.TextParas *= o.scale
		s.AFSDirs *= o.scale
		s.ParthChain *= o.scale
		s.ProtonKB *= o.scale
		return bench.Table3(h, s)
	}, bench.FormatTable3),
	entry("4", "Table 4: hardware vs software Test-And-Set, eight processors", func(h *bench.Harness, o benchOpts) ([]bench.T4Row, error) {
		return bench.Table4(h, o.iters)
	}, bench.FormatTable4),
	entry("i860", "i860 hardware lock bit vs software (§7)", func(h *bench.Harness, o benchOpts) ([]bench.I860Row, error) {
		return bench.TableI860(h, o.iters)
	}, bench.FormatI860),
	entry("lamport", "Software reservation protocols (Figure 1 vs Figure 2)", func(h *bench.Harness, o benchOpts) ([]bench.LamportRow, error) {
		return bench.TableLamport(h, o.iters)
	}, bench.FormatLamport),
	entry("holdups", "parthenon-10 lock holdups (§5.3)", func(h *bench.Harness, o benchOpts) ([]bench.HoldupRow, error) {
		s := bench.DefaultScale()
		s.Quantum = 3000
		return bench.TableHoldups(h, s)
	}, bench.FormatHoldups),
	entry("ablation", "PC-check placement ablation (§4.1)", func(h *bench.Harness, o benchOpts) ([]bench.AblationRow, error) {
		return bench.TableAblation(h, 3, 200)
	}, bench.FormatAblation),
	entry("wbuf", "Write-buffer sensitivity (§5.1 design remark)", func(h *bench.Harness, o benchOpts) ([]bench.WBufRow, error) {
		return bench.TableWriteBuffer(h, o.iters)
	}, bench.FormatWriteBuffer),
	entry("ranges", "Registration-table size vs check cost (§3.1 restriction)", func(h *bench.Harness, o benchOpts) ([]bench.RangesRow, error) {
		return bench.TableRegistrationRanges(h, 3, 200)
	}, func(rows []bench.RangesRow) string {
		return bench.FormatRanges(rows, arch.R3000().PCCheckDesignatedCycles)
	}),
	entry("quantum", "Restart frequency vs scheduling quantum (validating §5.3's optimism)", func(h *bench.Harness, o benchOpts) ([]bench.QuantumRow, error) {
		return bench.TableQuantumSweep(h, 4, 500, nil)
	}, bench.FormatQuantumSweep),
	entry("workers", "Server worker pool on a uniprocessor (afs-bench client)", func(h *bench.Harness, o benchOpts) ([]bench.WorkerRow, error) {
		return bench.TableServerWorkers(h, nil)
	}, bench.FormatServerWorkers),
	entry("chaos", "Chaos sweep: seeded fault injection, watchdog, degradation", func(h *bench.Harness, o benchOpts) ([]bench.ChaosRow, error) {
		cfg := bench.DefaultChaosConfig()
		cfg.Seed, cfg.MaxCycles = o.seedOr(cfg.Seed), o.timeout
		if o.level > 0 {
			cfg.Levels = []float64{o.level}
		}
		return bench.TableChaos(h, cfg)
	}, bench.FormatChaos),
	entry("recovery", "Recovery sweep: thread kills, orphan repair, checkpoint/restore", func(h *bench.Harness, o benchOpts) ([]bench.RecoveryRow, error) {
		cfg := bench.DefaultRecoveryConfig()
		cfg.Seed, cfg.MaxCycles = o.seedOr(cfg.Seed), o.timeout
		return bench.TableRecovery(h, cfg)
	}, bench.FormatRecovery),
	entry("persist", "Persistence sweep: volatile crashes, bounded loss, NVM recovery (E23)", func(h *bench.Harness, o benchOpts) ([]bench.PersistRow, error) {
		cfg := bench.DefaultPersistConfig()
		cfg.Seed, cfg.MaxCycles = o.seedOr(cfg.Seed), o.timeout
		return bench.TablePersist(h, cfg)
	}, bench.FormatPersist),
	entry("journal", "Journaling sweep: undo vs redo WAL, torn crashes, replay (E24)", func(h *bench.Harness, o benchOpts) ([]bench.JournalRow, error) {
		cfg := bench.DefaultJournalConfig()
		cfg.Seed, cfg.MaxCycles = o.seedOr(cfg.Seed), o.timeout
		return bench.TableJournal(h, cfg)
	}, bench.FormatJournal),
	entry("smp", "SMP sweep: §7 hybrid RAS+spinlock vs pure spinlock vs ll/sc", func(h *bench.Harness, o benchOpts) ([]bench.SMPRow, error) {
		cfg := bench.DefaultSMPConfig()
		cfg.Seed, cfg.MaxCycles = o.seedOr(cfg.Seed), o.timeout
		if o.cpuList != nil {
			cfg.CPUList = o.cpuList
		}
		return bench.TableSMP(h, cfg)
	}, bench.FormatSMP),
	entry("server", "Server sweep: per-CPU request plane vs mutex queue, one million requests", func(h *bench.Harness, o benchOpts) ([]bench.ServerRow, error) {
		cfg := bench.DefaultServerConfig()
		cfg.Seed, cfg.MaxCycles = o.seedOr(cfg.Seed), o.timeout
		if o.cpuList != nil {
			cfg.CPUList, cfg.Shards = o.cpuList, o.cpuList
		}
		return bench.TableServer(h, cfg)
	}, bench.FormatServer),
	entry("rmr", "RMR sweep: queue locks' remote references per passage vs the spinlock's", func(h *bench.Harness, o benchOpts) ([]bench.RMRRow, error) {
		cfg := bench.DefaultRMRConfig()
		cfg.Seed, cfg.MaxCycles = o.seedOr(cfg.Seed), o.timeout
		if o.cpuList != nil {
			cfg.CPUList = o.cpuList
		}
		return bench.TableRMR(h, cfg)
	}, bench.FormatRMR),
	entry("resilience", "Resilience sweep: crash-restart supervision, exactly-once server, degraded cycle (E27)", func(h *bench.Harness, o benchOpts) ([]bench.ResilienceRow, error) {
		cfg := bench.DefaultResilienceConfig()
		cfg.Seed, cfg.MaxCycles = o.seedOr(cfg.Seed), o.timeout
		return bench.TableResilience(h, cfg)
	}, bench.FormatResilience),
}

// parseCPUList turns "-cpus 1,2,4" into []int{1, 2, 4}.
func parseCPUList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad -cpus entry %q", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// check rejects flag values no table runs correctly with and parses -cpus.
func (o *benchOpts) check() error {
	switch {
	case o.iters < 10:
		return fmt.Errorf("-iters %d: want at least 10 (table 2 runs iters/10)", o.iters)
	case o.scale < 1:
		return fmt.Errorf("-scale %d: want at least 1", o.scale)
	case !(o.level >= 0 && o.level <= 1):
		return fmt.Errorf("-level %g: want a value in [0, 1]", o.level)
	}
	var err error
	o.cpuList, err = parseCPUList(o.cpus)
	return err
}

func runOpts(o benchOpts) error {
	if o.list {
		for _, t := range tables {
			fmt.Printf("%-10s %s\n", t.name, t.title)
		}
		return nil
	}
	if err := o.check(); err != nil {
		return err
	}
	var selected []table
	for _, t := range tables {
		if o.table == "all" || o.table == t.name {
			selected = append(selected, t)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown table %q", o.table)
	}

	// Observability: one observer receives every substrate run of every
	// table, rebased end to end onto one timeline, and streams the Chrome
	// trace and the event-derived metrics.
	ob, err := obs.NewObserver(obs.Outputs{TraceOut: o.traceOut, Metrics: o.metrics})
	if err != nil {
		return err
	}
	err = runTables(selected, o, ob.Trace)
	if cerr := ob.Close(os.Stdout); err == nil {
		err = cerr
	}
	return err
}

// runTables prints every selected table, each run through its own
// harness over trace, and writes the -json records.
func runTables(selected []table, o benchOpts, trace *obs.Rebase) error {
	results := make([]tableResult, 0, len(selected))
	for _, t := range selected {
		fmt.Printf("\n== %s ==\n\n", t.title)
		h := &bench.Harness{Trace: trace}
		rows, text, err := t.run(h, o)
		if err != nil {
			return err
		}
		fmt.Print(text)
		results = append(results, tableResult{Name: t.name, RunStats: h.Stats, Rows: rows})
	}
	if o.jsonOut == "" {
		return nil
	}
	data, err := json.MarshalIndent(results, "", " ")
	if err != nil {
		return err
	}
	return obs.WriteOut(os.Stdout, o.jsonOut, append(data, '\n'))
}
