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
	flag.IntVar(&o.iters, "iters", 20000, "microbenchmark loop iterations")
	flag.IntVar(&o.scale, "scale", 1, "table 3 workload multiplier")
	flag.Uint64Var(&o.seed, "seed", 0, "chaos master seed (0 = default); use with -level to replay a failure")
	flag.Float64Var(&o.level, "level", 0, "chaos fault intensity in (0,1]; 0 sweeps the default levels")
	flag.Uint64Var(&o.timeout, "timeout", 0, "cycle budget per run (0 = substrate default); a livelocked guest exits nonzero")
	flag.StringVar(&o.jsonOut, "json", "", "write per-table results (name, cycles, restarts, traps) as JSON (\"-\" = stdout)")
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

// table is one registry entry. run regenerates the table and returns its
// printed text; rows is the row-level detail for the -json record, nil
// for tables whose record carries only the aggregate counters.
type table struct {
	name, title string
	run         func(o benchOpts) (rows any, text string, err error)
}

// tableResult is one -json record: the aggregate substrate counters behind
// one regenerated table, plus that table's own rows.
type tableResult struct {
	Name string `json:"name"`
	bench.RunStats
	Rows any `json:"rows,omitempty"`
}

// textOnly finishes a registry run whose rows stay out of the -json record.
func textOnly[R any](rows R, err error, format func(R) string) (any, string, error) {
	if err != nil {
		return nil, "", err
	}
	return nil, format(rows), nil
}

// withRows finishes a registry run whose rows go into the -json record.
func withRows[R any](rows []R, err error, format func([]R) string) (any, string, error) {
	if err != nil {
		return nil, "", err
	}
	return rows, format(rows), nil
}

// tables is the registry: -list, -table, -json and the tests iterate it,
// and `-table all` runs it in this order.
var tables = []table{
	{"1", "Table 1: mutual exclusion microbenchmarks, DECstation 5000/200 (simulated)", func(o benchOpts) (any, string, error) {
		rows, err := bench.Table1(o.iters)
		return textOnly(rows, err, bench.FormatTable1)
	}},
	{"2", "Table 2: thread management overhead, emulation vs R.A.S.", func(o benchOpts) (any, string, error) {
		rows, err := bench.Table2(o.iters / 10)
		return textOnly(rows, err, bench.FormatTable2)
	}},
	{"3", "Table 3: application performance", func(o benchOpts) (any, string, error) {
		s := bench.DefaultScale()
		s.TextParas *= o.scale
		s.AFSDirs *= o.scale
		s.ParthChain *= o.scale
		s.ProtonKB *= o.scale
		rows, err := bench.Table3(s)
		return textOnly(rows, err, bench.FormatTable3)
	}},
	{"4", "Table 4: hardware vs software Test-And-Set, eight processors", func(o benchOpts) (any, string, error) {
		rows, err := bench.Table4(o.iters)
		return textOnly(rows, err, bench.FormatTable4)
	}},
	{"i860", "i860 hardware lock bit vs software (§7)", func(o benchOpts) (any, string, error) {
		rows, err := bench.TableI860(o.iters)
		return textOnly(rows, err, bench.FormatI860)
	}},
	{"lamport", "Software reservation protocols (Figure 1 vs Figure 2)", func(o benchOpts) (any, string, error) {
		rows, err := bench.TableLamport(o.iters)
		return textOnly(rows, err, bench.FormatLamport)
	}},
	{"holdups", "parthenon-10 lock holdups (§5.3)", func(o benchOpts) (any, string, error) {
		s := bench.DefaultScale()
		s.Quantum = 3000
		rows, err := bench.TableHoldups(s)
		return textOnly(rows, err, bench.FormatHoldups)
	}},
	{"ablation", "PC-check placement ablation (§4.1)", func(o benchOpts) (any, string, error) {
		rows, err := bench.TableAblation(3, 200)
		return textOnly(rows, err, bench.FormatAblation)
	}},
	{"wbuf", "Write-buffer sensitivity (§5.1 design remark)", func(o benchOpts) (any, string, error) {
		rows, err := bench.TableWriteBuffer(o.iters)
		return textOnly(rows, err, bench.FormatWriteBuffer)
	}},
	{"ranges", "Registration-table size vs check cost (§3.1 restriction)", func(o benchOpts) (any, string, error) {
		rows, err := bench.TableRegistrationRanges(3, 200)
		if err != nil {
			return nil, "", err
		}
		return nil, bench.FormatRanges(rows, arch.R3000().PCCheckDesignatedCycles), nil
	}},
	{"quantum", "Restart frequency vs scheduling quantum (validating §5.3's optimism)", func(o benchOpts) (any, string, error) {
		rows, err := bench.TableQuantumSweep(4, 500, nil)
		return textOnly(rows, err, bench.FormatQuantumSweep)
	}},
	{"workers", "Server worker pool on a uniprocessor (afs-bench client)", func(o benchOpts) (any, string, error) {
		rows, err := bench.TableServerWorkers(nil)
		return textOnly(rows, err, bench.FormatServerWorkers)
	}},
	{"chaos", "Chaos sweep: seeded fault injection, watchdog, degradation", func(o benchOpts) (any, string, error) {
		cfg := bench.DefaultChaosConfig()
		if o.seed != 0 {
			cfg.Seed = o.seed
		}
		if o.level > 0 {
			cfg.Levels = []float64{o.level}
		}
		cfg.MaxCycles = o.timeout
		rows, err := bench.TableChaos(cfg)
		return textOnly(rows, err, bench.FormatChaos)
	}},
	{"recovery", "Recovery sweep: thread kills, orphan repair, checkpoint/restore", func(o benchOpts) (any, string, error) {
		cfg := bench.DefaultRecoveryConfig()
		if o.seed != 0 {
			cfg.Seed = o.seed
		}
		cfg.MaxCycles = o.timeout
		rows, err := bench.TableRecovery(cfg)
		return textOnly(rows, err, bench.FormatRecovery)
	}},
	{"persist", "Persistence sweep: volatile crashes, bounded loss, NVM recovery (E23)", func(o benchOpts) (any, string, error) {
		cfg := bench.DefaultPersistConfig()
		if o.seed != 0 {
			cfg.Seed = o.seed
		}
		cfg.MaxCycles = o.timeout
		rows, err := bench.TablePersist(cfg)
		return withRows(rows, err, bench.FormatPersist)
	}},
	{"journal", "Journaling sweep: undo vs redo WAL, torn crashes, replay (E24)", func(o benchOpts) (any, string, error) {
		cfg := bench.DefaultJournalConfig()
		if o.seed != 0 {
			cfg.Seed = o.seed
		}
		cfg.MaxCycles = o.timeout
		rows, err := bench.TableJournal(cfg)
		return withRows(rows, err, bench.FormatJournal)
	}},
	{"smp", "SMP sweep: §7 hybrid RAS+spinlock vs pure spinlock vs ll/sc", func(o benchOpts) (any, string, error) {
		cfg := bench.DefaultSMPConfig()
		cpuList, err := parseCPUList(o.cpus)
		if err != nil {
			return nil, "", err
		}
		if cpuList != nil {
			cfg.CPUList = cpuList
		}
		if o.seed != 0 {
			cfg.Seed = o.seed
		}
		cfg.MaxCycles = o.timeout
		rows, err := bench.TableSMP(cfg)
		return withRows(rows, err, bench.FormatSMP)
	}},
	{"server", "Server sweep: per-CPU request plane vs mutex queue, one million requests", func(o benchOpts) (any, string, error) {
		cfg := bench.DefaultServerConfig()
		cpuList, err := parseCPUList(o.cpus)
		if err != nil {
			return nil, "", err
		}
		if cpuList != nil {
			cfg.CPUList = cpuList
			cfg.Shards = cpuList
		}
		if o.seed != 0 {
			cfg.Seed = o.seed
		}
		cfg.MaxCycles = o.timeout
		rows, err := bench.TableServer(cfg)
		return withRows(rows, err, bench.FormatServer)
	}},
	{"rmr", "RMR sweep: queue locks' remote references per passage vs the spinlock's", func(o benchOpts) (any, string, error) {
		cfg := bench.DefaultRMRConfig()
		cpuList, err := parseCPUList(o.cpus)
		if err != nil {
			return nil, "", err
		}
		if cpuList != nil {
			cfg.CPUList = cpuList
		}
		if o.seed != 0 {
			cfg.Seed = o.seed
		}
		cfg.MaxCycles = o.timeout
		rows, err := bench.TableRMR(cfg)
		return withRows(rows, err, bench.FormatRMR)
	}},
	{"resilience", "Resilience sweep: crash-restart supervision, exactly-once server, degraded cycle (E27)", func(o benchOpts) (any, string, error) {
		cfg := bench.DefaultResilienceConfig()
		if o.seed != 0 {
			cfg.Seed = o.seed
		}
		cfg.MaxCycles = o.timeout
		rows, err := bench.TableResilience(cfg)
		return withRows(rows, err, bench.FormatResilience)
	}},
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

func runOpts(o benchOpts) error {
	if o.list {
		for _, t := range tables {
			fmt.Printf("%-10s %s\n", t.name, t.title)
		}
		return nil
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

	// Observability: one bus receives every substrate run the harness
	// starts (rebased end-to-end by the bench package), feeding the
	// Chrome capture and the event-derived metrics.
	var capture *obs.Capture
	var pm *obs.PaperMetrics
	if o.traceOut != "" || o.metrics != "" {
		bus := obs.NewBus(0)
		if o.traceOut != "" {
			capture = &obs.Capture{}
			bus.Attach(capture)
		}
		if o.metrics != "" {
			pm = obs.NewPaperMetrics(nil)
			bus.Attach(pm)
		}
		bench.SetTraceSink(bus)
		defer bench.SetTraceSink(nil)
	}

	results := make([]tableResult, 0, len(selected))
	for _, t := range selected {
		fmt.Printf("\n== %s ==\n\n", t.title)
		rec := tableResult{Name: t.name}
		bench.CollectStats(&rec.RunStats)
		rows, text, err := t.run(o)
		bench.CollectStats(nil)
		if err != nil {
			return err
		}
		fmt.Print(text)
		rec.Rows = rows
		results = append(results, rec)
	}

	if o.jsonOut != "" {
		data, err := json.MarshalIndent(results, "", " ")
		if err != nil {
			return err
		}
		if err := writeOut(o.jsonOut, append(data, '\n')); err != nil {
			return err
		}
	}
	if capture != nil {
		data, err := obs.ChromeTrace(capture.Events())
		if err != nil {
			return err
		}
		if err := writeOut(o.traceOut, data); err != nil {
			return err
		}
	}
	if pm != nil {
		if err := writeOut(o.metrics, []byte(pm.Dump())); err != nil {
			return err
		}
	}
	return nil
}

// writeOut writes data to path, with "-" meaning stdout.
func writeOut(path string, data []byte) error {
	if path == "-" {
		_, err := os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
