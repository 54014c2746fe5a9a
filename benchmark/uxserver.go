package main

import (
	"bytes"
	"fmt"
	"time"

	"repro/internal/arch"
	"repro/internal/chaos"
	"repro/internal/core"
	"repro/internal/cthreads"
	"repro/internal/memfs"
	"repro/internal/obs"
	"repro/internal/percpu"
	"repro/internal/uniproc"
	"repro/internal/uxserver"
)

// uxOps is the seeded request mix, in tenths: 40% ReadFile, 20% Stat,
// 30% Append of 64 B, 10% WriteFile of 256 B. The overwrites keep files
// small, so the cost of a request stays flat over a long run.
var uxOps = []struct {
	name   string
	tenths int
}{{"read", 4}, {"stat", 2}, {"append", 3}, {"write", 1}}

const (
	uxShards, uxDepth, uxFiles = 4, 16, 4
	uxAppend, uxWrite          = 64, 256
)

// uxServer is the ux-server workload: closed-loop clients, each on its
// own private files, against uxserver.StartPerCPU on a fresh
// uniproc.Processor per round. It never touches vmach. One pass is one
// round; one unit is one request.
type uxServer struct {
	seed              uint64
	clients, requests int // per round; requests per client
	prefixRounds      int

	// Over the prefix rounds.
	proc                uniproc.Stats
	memops, clock, reqs uint64
	queue               percpu.QueueStats
	opCycles            []counts // by op
	allCycles           counts

	// Traced run.
	opLat  []reservoir // host ns by op
	memAll uint64      // memops over every traced round
}

func newUXServer(seed uint64, smoke bool) *uxServer {
	w := &uxServer{seed: seed, clients: 8, requests: 1250, prefixRounds: 80, allCycles: counts{}}
	if smoke {
		w.requests, w.prefixRounds = 300, 2
	}
	for range uxOps {
		w.opCycles = append(w.opCycles, counts{})
		w.opLat = append(w.opLat, reservoir{rng: seed})
	}
	return w
}

func (w *uxServer) prefix() int { return w.prefixRounds }

// setup runs one short warm-up round; the server and processor are built
// afresh every round.
func (w *uxServer) setup() error {
	m := &meter{}
	if !w.round(-1, 200, m) || m.failed > 0 {
		return fmt.Errorf("warm-up round failed")
	}
	return nil
}

func (w *uxServer) pass(i int, m *meter) {
	w.round(i, w.requests, m)
}

// round serves requests per client on a fresh processor and checks every
// reply against the client's own copy of its files, then the server's
// request and passage counts. It reports whether the round ran at all.
func (w *uxServer) round(r, requests int, m *meter) bool {
	proc := uniproc.New(uniproc.Config{Profile: arch.R3000(), Quantum: 20000,
		JitterSeed: chaos.Derive(w.seed, uint64(r)) | 1})
	pkg := cthreads.New(core.NewRAS())
	srv := uxserver.StartPerCPU(proc, pkg, memfs.New(pkg), uxShards, uxDepth)
	srv.Passage = obs.NewHistogram(obs.ExpBuckets(64, 20))
	unitsBefore, failedBefore := m.units, m.failed
	coord := pkg.NewSemaphore(0)
	proc.Go("spawner", func(e *uniproc.Env) {
		for c := 0; c < w.clients; c++ {
			c := c
			e.Fork("client", func(e *uniproc.Env) {
				w.client(e, srv, r, c, requests, m)
				coord.V(e)
			})
		}
		for c := 0; c < w.clients; c++ {
			coord.P(e)
		}
		srv.Shutdown(e)
	})
	err := proc.Run()
	sent := uint64(w.clients * (requests + uxFiles))
	if err == nil && srv.Requests != sent {
		err = fmt.Errorf("server accepted %d requests, clients sent %d", srv.Requests, sent)
	}
	if err == nil && srv.Passage.Count() != sent {
		err = fmt.Errorf("%d passages recorded for %d requests", srv.Passage.Count(), sent)
	}
	if err != nil {
		// Every request of the round counts as failed, once.
		if m.units == unitsBefore {
			m.unit(0, 0)
		}
		m.failed = failedBefore + m.units - unitsBefore
		reportFailure("ux-server", w.seed, "round %d: %v", r, err)
		return false
	}
	m.addEvents(proc.MemOps())
	if m.tr != nil {
		w.memAll += proc.MemOps()
	}
	if m.inPrefix {
		s := proc.Stats
		w.proc.Switches += s.Switches
		w.proc.Suspensions += s.Suspensions
		w.proc.Restarts += s.Restarts
		w.proc.Yields += s.Yields
		w.proc.Blocks += s.Blocks
		w.memops += proc.MemOps()
		w.clock += proc.Clock()
		w.reqs += srv.Requests
		q := srv.QueueStats()
		w.queue.Batches += q.Batches
		w.queue.Drained += q.Drained
		w.queue.Steals += q.Steals
	}
	return true
}

// client creates its files, then sends requests drawn from its seeded
// stream, each checked against the client's copy of the file.
func (w *uxServer) client(e *uniproc.Env, srv *uxserver.Server, r, c, requests int, m *meter) {
	var files [uxFiles]string
	var want [uxFiles][]byte
	for j := range files {
		files[j] = fmt.Sprintf("/c%d-f%d", c, j)
		if err := srv.Create(e, files[j]); err != nil {
			reportFailure("ux-server", w.seed, "round %d client %d: create %s: %v", r, c, files[j], err)
		}
	}
	appendData := bytes.Repeat([]byte{byte('a' + c)}, uxAppend)
	writeData := bytes.Repeat([]byte{byte('A' + c)}, uxWrite)
	rng := chaos.Derive(w.seed, uint64(r), uint64(c)) | 1
	for i := 0; i < requests; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		op, j := 0, int(rng>>8)%uxFiles
		for d := int(rng % 10); d >= uxOps[op].tenths; op++ {
			d -= uxOps[op].tenths
		}
		t0, c0 := time.Now(), e.Now()
		var err error
		switch op {
		case 0:
			var got []byte
			if got, err = srv.ReadFile(e, files[j]); err == nil && !bytes.Equal(got, want[j]) {
				err = fmt.Errorf("read %d bytes, want %d", len(got), len(want[j]))
			}
		case 1:
			var dir bool
			var size int
			if dir, size, err = srv.Stat(e, files[j]); err == nil && (dir || size != len(want[j])) {
				err = fmt.Errorf("stat size %d dir %v, want size %d", size, dir, len(want[j]))
			}
		case 2:
			err = srv.Append(e, files[j], appendData)
			want[j] = append(want[j], appendData...)
		case 3:
			err = srv.WriteFile(e, files[j], writeData)
			want[j] = append(want[j][:0], writeData...)
		}
		lat, cyc := time.Since(t0), e.Now()-c0
		m.unit(lat, 0)
		if err != nil {
			m.failed++
			reportFailure("ux-server", w.seed, "round %d client %d request %d (%s %s): %v", r, c, i, uxOps[op].name, files[j], err)
		}
		if m.tr != nil {
			w.opLat[op].add(float64(lat))
			m.tr.record(kindRequest, int32(c+1), int64(i), t0, lat)
		}
		if m.inPrefix && r >= 0 {
			w.opCycles[op][cyc]++
			w.allCycles[cyc]++
		}
	}
}

func (w *uxServer) simulated() map[string]float64 {
	out := map[string]float64{
		"uniproc.memops":          float64(w.memops),
		"uniproc.switches":        float64(w.proc.Switches),
		"uniproc.suspensions":     float64(w.proc.Suspensions),
		"uniproc.restarts":        float64(w.proc.Restarts),
		"uniproc.yields":          float64(w.proc.Yields),
		"uniproc.blocks":          float64(w.proc.Blocks),
		"uxserver.cycles_per_req": ratio(float64(w.clock), float64(w.reqs)),
		"uxserver.req_cycles_p99": w.allCycles.quantile(0.99),
		"percpu.batches":          float64(w.queue.Batches),
		"percpu.mean_batch":       ratio(float64(w.queue.Drained), float64(w.queue.Batches)),
		"percpu.steals":           float64(w.queue.Steals),
	}
	for i, op := range uxOps {
		out["uxserver."+op.name+"_cycles_p50"] = w.opCycles[i].quantile(0.5)
	}
	return out
}

func (w *uxServer) timings(t *tracer) map[string]float64 {
	out := map[string]float64{
		"uniproc.ns_per_memop": ratio(float64(t.totals[kindPass].dur-t.totals[kindProbe].dur), float64(w.memAll)),
		"uniproc.yield_ns":     yieldNs(),
	}
	for i, op := range uxOps {
		out["uxserver."+op.name+"_us_p50"] = w.opLat[i].quantile(0.5) / 1e3
	}
	return out
}

// yieldNs is the host cost of one Env.Yield: two green threads handing
// the processor back and forth.
func yieldNs() float64 {
	const n = 20_000
	proc := uniproc.New(uniproc.Config{})
	for t := 0; t < 2; t++ {
		proc.Go("yielder", func(e *uniproc.Env) {
			for i := 0; i < n; i++ {
				e.Yield()
			}
		})
	}
	t0 := time.Now()
	if err := proc.Run(); err != nil {
		return 0
	}
	return float64(time.Since(t0)) / (2 * n)
}
