package bench

import (
	"fmt"
	"strings"

	"repro/internal/arch"
	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/guest"
	"repro/internal/isa"
	"repro/internal/memfs"
	"repro/internal/obs"
	"repro/internal/uniproc"
	"repro/internal/uxserver"
	"repro/internal/vmach/kernel"
	"repro/internal/vmach/smp"
)

// ServerConfig parametrizes the request-plane load study: the guest-asm
// server replayed on the SMP substrate (per-CPU rings vs one mutex
// queue) and the uxserver request plane replayed on the uniprocessor
// (per-CPU shards vs one locked queue). The default sizing replays over
// one million requests across the sweep.
type ServerConfig struct {
	CPUList    []int      // CPU counts for the guest sweep
	Clients    int        // client threads per CPU (guest sweep)
	Iters      int        // requests per client, per-CPU variant
	MutexIters int        // requests per client, mutex baseline (slower: smaller)
	Modes      []smp.Mode // RMR counting modes
	Seed       uint64     // recorded for replayability; the sweep is deterministic
	MaxCycles  uint64     // bound per run; 0 uses the kernel default

	Shards     []int // shard counts for the uniproc uxserver rows
	UXClients  int   // client threads (uniproc rows)
	UXRequests int   // requests per client (uniproc rows)
}

// DefaultServerConfig returns the configuration `rasbench -table server`
// and `make server` run: ≥1e6 requests total across the sweep.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		CPUList:    []int{1, 2, 4, 8},
		Clients:    4,
		Iters:      8000,
		MutexIters: 500,
		Modes:      []smp.Mode{smp.CC, smp.DSM},
		Seed:       1,
		Shards:     []int{1, 2, 4, 8},
		UXClients:  4,
		UXRequests: 1500,
	}
}

// ServerRow is one cell of the server table. Guest rows (World "smp")
// report RMRs and wall-clock throughput: WallCycles is the busiest
// CPU's cycle count, so Throughput (requests per thousand wall cycles)
// scaling with CPUs is the per-CPU design's whole claim, while the
// mutex baseline's flatlines. Every row carries client-observed latency
// quantiles: guest rows from the per-CPU submission histogram the guest
// logs (log2 bucket edges), uniproc rows from the uxserver passage
// histogram.
type ServerRow struct {
	Impl         string  `json:"impl"`  // percpu | mutex | ux-single | ux-percpu
	World        string  `json:"world"` // smp | uniproc
	CPUs         int     `json:"cpus"`  // CPUs (smp) or shards (uniproc)
	Mode         string  `json:"mode"`  // CC | DSM | - (uniproc)
	Requests     uint64  `json:"requests"`
	WallCycles   uint64  `json:"wall_cycles"`
	CyclesPerReq float64 `json:"cycles_per_req"` // aggregate cycles (all CPUs) per request
	Throughput   float64 `json:"throughput"`     // requests per 1000 wall cycles
	MicrosTotal  float64 `json:"micros_total"`
	RMRs         uint64  `json:"rmrs"`
	RMRPerReq    float64 `json:"rmr_per_req"`
	Restarts     uint64  `json:"restarts"`
	MeanBatch    float64 `json:"mean_batch"` // requests per non-empty drain
	P50          uint64  `json:"p50"`        // client-observed latency bucket edges
	P95          uint64  `json:"p95"`
	P99          uint64  `json:"p99"`
}

// ServerSystem loads the request-plane guest for v onto a fresh system
// of multi-registration kernels, registers its latency-histogram
// sequences and (except on the mutex baseline) its queue sequences on
// every CPU, and spawns one worker plus clients clients per CPU, each
// client submitting iters requests. The server table and rasvm's server
// demo both build through it.
func ServerSystem(cfg smp.Config, v guest.ServerVariant, clients, iters int) (*smp.System, *asm.Program, error) {
	cfg.NewStrategy = kernel.MultiRegistrationStrategy
	sys := smp.New(cfg)
	prog := guest.Assemble(guest.ServerProgram(v, cfg.CPUs))
	sys.Load(prog)
	ranges := guest.ServerLatSequenceRanges(prog)
	if v != guest.ServerMutex {
		ranges = append(ranges, guest.ServerSequenceRanges(prog)...)
	}
	for _, k := range sys.CPUs {
		for _, r := range ranges {
			if err := k.RegisterSequence(0, r[0], r[1]); err != nil {
				return nil, nil, err
			}
		}
	}
	workerArg := clients
	if v == guest.ServerMutex {
		workerArg = clients * cfg.CPUs
	}
	worker, client := prog.MustSymbol("worker"), prog.MustSymbol("client")
	for cpu := 0; cpu < cfg.CPUs; cpu++ {
		sys.Spawn(cpu, worker, guest.StackTop(smp.GlobalID(cpu, 0)), isa.Word(workerArg))
		for c := 0; c < clients; c++ {
			sys.Spawn(cpu, client, guest.StackTop(smp.GlobalID(cpu, c+1)), isa.Word(iters))
		}
	}
	return sys, prog, nil
}

// serverRun replays one guest cell: one worker plus cfg.Clients clients
// per CPU. Every request is accounted: a served-count mismatch fails the
// run (this is what the racy drain variant trips under forced schedules;
// under the round-robin bench schedule both variants are clean).
func serverRun(cfg ServerConfig, mode smp.Mode, v guest.ServerVariant, cpus, iters int) (ServerRow, error) {
	sys, prog, err := ServerSystem(smp.Config{CPUs: cpus, Mode: mode, MaxCycles: cfg.MaxCycles},
		v, cfg.Clients, iters)
	if err != nil {
		return ServerRow{}, err
	}
	attachSMP(sys)
	err = sys.Run()
	noteSMPRun(sys)
	if err != nil {
		return ServerRow{}, fmt.Errorf("bench: server %s/%dcpu/%s: %w", v, cpus, mode, err)
	}
	requests := uint64(cpus * cfg.Clients * iters)
	served, batches := guest.ServerCounts(sys.Mem, prog, v, cpus)
	if served != requests {
		return ServerRow{}, fmt.Errorf("bench: server %s/%dcpu/%s: served %d, want %d — request lost",
			v, cpus, mode, served, requests)
	}
	lat := obs.NewHistogram(obs.ExpBuckets(1, guest.ServerLatBuckets))
	var latTotal uint64
	for b, n := range guest.ServerLatCounts(sys.Mem, prog, cpus) {
		lat.ObserveN(uint64(1)<<b, n)
		latTotal += n
	}
	if latTotal != requests {
		return ServerRow{}, fmt.Errorf("bench: server %s/%dcpu/%s: %d latency observations, want %d",
			v, cpus, mode, latTotal, requests)
	}
	wall := sys.MaxCycles()
	cycles, rmrs := sys.TotalCycles(), sys.TotalRMRs()
	row := ServerRow{
		Impl:         v.String(),
		World:        "smp",
		CPUs:         cpus,
		Mode:         mode.String(),
		Requests:     requests,
		WallCycles:   wall,
		CyclesPerReq: float64(cycles) / float64(requests),
		Throughput:   float64(requests) * 1000 / float64(wall),
		MicrosTotal:  arch.SMP().Micros(wall),
		RMRs:         rmrs,
		RMRPerReq:    float64(rmrs) / float64(requests),
		Restarts:     sys.TotalRestarts(),
		P50:          lat.P50(),
		P95:          lat.P95(),
		P99:          lat.P99(),
	}
	if batches > 0 {
		row.MeanBatch = float64(served) / float64(batches)
	}
	return row, nil
}

// uxRun replays one uniproc cell: cfg.UXClients clients each driving
// cfg.UXRequests file operations at the uxserver, with the passage-cost
// histogram attached so the row carries client-observed latency
// quantiles.
func uxRun(cfg ServerConfig, perCPU bool, shards int) (ServerRow, error) {
	proc := uniproc.New(uniproc.Config{Profile: arch.R3000(), Quantum: 20000, JitterSeed: 23})
	pkg := cthreads.New(core.NewRAS())
	var srv *uxserver.Server
	impl := "ux-single"
	if perCPU {
		impl = "ux-percpu"
		srv = uxserver.StartPerCPU(proc, pkg, memfs.New(pkg), shards, 16)
	} else {
		srv = uxserver.Start(proc, pkg, memfs.New(pkg), shards)
	}
	srv.Passage = obs.NewHistogram(obs.ExpBuckets(64, 20))
	coord := pkg.NewSemaphore(0)
	var clientErr error
	proc.Go("spawner", func(e *uniproc.Env) {
		for c := 0; c < cfg.UXClients; c++ {
			cid := byte('a' + c%26)
			e.Fork("client", func(e *uniproc.Env) {
				path := "/" + string(cid)
				if err := srv.Create(e, path); err != nil && clientErr == nil {
					clientErr = err
				}
				for i := 1; i < cfg.UXRequests; i++ {
					var err error
					switch i % 4 {
					case 0:
						_, err = srv.ReadFile(e, path)
					case 3:
						_, _, err = srv.Stat(e, path)
					default:
						err = srv.Append(e, path, []byte("x"))
					}
					if err != nil && clientErr == nil {
						clientErr = err
					}
				}
				coord.V(e)
			})
		}
		for c := 0; c < cfg.UXClients; c++ {
			coord.P(e)
		}
		srv.Shutdown(e)
	})
	attachProc(proc)
	err := proc.Run()
	noteProcRun(proc)
	if err != nil {
		return ServerRow{}, fmt.Errorf("bench: server %s/%dshard: %w", impl, shards, err)
	}
	if clientErr != nil {
		return ServerRow{}, fmt.Errorf("bench: server %s/%dshard: %w", impl, shards, clientErr)
	}
	requests := uint64(cfg.UXClients * cfg.UXRequests)
	if srv.Requests != requests {
		return ServerRow{}, fmt.Errorf("bench: server %s/%dshard: accepted %d, want %d",
			impl, shards, srv.Requests, requests)
	}
	if srv.Passage.Count() != requests {
		return ServerRow{}, fmt.Errorf("bench: server %s/%dshard: %d passage observations, want %d",
			impl, shards, srv.Passage.Count(), requests)
	}
	row := ServerRow{
		Impl:         impl,
		World:        "uniproc",
		CPUs:         shards,
		Mode:         "-",
		Requests:     requests,
		WallCycles:   proc.Clock(),
		CyclesPerReq: float64(proc.Clock()) / float64(requests),
		Throughput:   float64(requests) * 1000 / float64(proc.Clock()),
		MicrosTotal:  proc.Micros(),
		Restarts:     proc.Stats.Restarts,
		P50:          srv.Passage.P50(),
		P95:          srv.Passage.P95(),
		P99:          srv.Passage.P99(),
	}
	if qs := srv.QueueStats(); qs.Batches > 0 {
		row.MeanBatch = float64(qs.Drained) / float64(qs.Batches)
	}
	return row, nil
}

// TableServer replays the full request-plane load study: the per-CPU
// guest server against the mutex baseline across CPU count × counting
// mode, then the rebuilt uxserver against the single-queue original
// across shard counts. Over a million requests end to end with the
// default configuration.
func TableServer(cfg ServerConfig) ([]ServerRow, error) {
	if len(cfg.CPUList) == 0 {
		cfg.CPUList = []int{1, 2, 4, 8}
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.Iters <= 0 {
		cfg.Iters = 8000
	}
	if cfg.MutexIters <= 0 {
		cfg.MutexIters = 500
	}
	if len(cfg.Modes) == 0 {
		cfg.Modes = []smp.Mode{smp.CC, smp.DSM}
	}
	if len(cfg.Shards) == 0 {
		cfg.Shards = []int{1, 2, 4, 8}
	}
	if cfg.UXClients <= 0 {
		cfg.UXClients = 4
	}
	if cfg.UXRequests <= 0 {
		cfg.UXRequests = 1500
	}
	var rows []ServerRow
	for _, mode := range cfg.Modes {
		for _, v := range []guest.ServerVariant{guest.ServerPerCPU, guest.ServerMutex} {
			iters := cfg.Iters
			if v == guest.ServerMutex {
				iters = cfg.MutexIters
			}
			for _, cpus := range cfg.CPUList {
				row, err := serverRun(cfg, mode, v, cpus, iters)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	for _, perCPU := range []bool{false, true} {
		for _, shards := range cfg.Shards {
			row, err := uxRun(cfg, perCPU, shards)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// TotalServerRequests sums the requests a row set replayed — the ≥1e6
// budget check.
func TotalServerRequests(rows []ServerRow) uint64 {
	var n uint64
	for _, r := range rows {
		n += r.Requests
	}
	return n
}

// FormatServer renders the server table.
func FormatServer(rows []ServerRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %-8s %5s %5s %10s %12s %11s %12s %10s %8s %8s %8s\n",
		"Impl", "World", "CPUs", "Mode", "Requests", "Cycles/req", "Req/kcycle", "RMR/req", "MeanBatch", "p50", "p95", "p99")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-10s %-8s %5d %5s %10d %12.1f %11.3f %12.4f %10.1f %8d %8d %8d\n",
			r.Impl, r.World, r.CPUs, r.Mode, r.Requests,
			r.CyclesPerReq, r.Throughput, r.RMRPerReq, r.MeanBatch, r.P50, r.P95, r.P99)
	}
	fmt.Fprintf(&b, "\ntotal requests replayed: %d\n", TotalServerRequests(rows))
	return b.String()
}
