package bench

import (
	"testing"

	"repro/internal/vmach/smp"
)

func smallServerConfig() ServerConfig {
	return ServerConfig{
		CPUList:    []int{1, 2, 4},
		Clients:    2,
		Iters:      400,
		MutexIters: 100,
		Modes:      []smp.Mode{smp.CC},
		Shards:     []int{1, 2},
		UXClients:  2,
		UXRequests: 80,
	}
}

func rowsBy(rows []ServerRow, impl string) map[int]ServerRow {
	out := make(map[int]ServerRow)
	for _, r := range rows {
		if r.Impl == impl {
			out[r.CPUs] = r
		}
	}
	return out
}

// The table's whole argument in one assertion: the per-CPU server's
// wall-clock throughput scales with CPU count while the mutex
// baseline's does not, and the per-CPU request path executes zero
// remote references where the mutex path executes many.
func TestServerScalingVsMutexFlatline(t *testing.T) {
	rows, err := TableServer(&Harness{}, smallServerConfig())
	if err != nil {
		t.Fatal(err)
	}
	percpu, mutex := rowsBy(rows, "percpu"), rowsBy(rows, "mutex")
	if percpu[4].Throughput < 2*percpu[1].Throughput {
		t.Errorf("percpu throughput not scaling: 1cpu=%.3f 4cpu=%.3f",
			percpu[1].Throughput, percpu[4].Throughput)
	}
	if mutex[4].Throughput > 1.5*mutex[1].Throughput {
		t.Errorf("mutex throughput unexpectedly scaling: 1cpu=%.3f 4cpu=%.3f",
			mutex[1].Throughput, mutex[4].Throughput)
	}
	for cpus, r := range percpu {
		if r.RMRs != 0 {
			t.Errorf("percpu %dcpu: %d RMRs on the request path, want 0", cpus, r.RMRs)
		}
	}
	if mutex[4].RMRPerReq <= 0 {
		t.Errorf("mutex 4cpu: RMR/req = %v, want > 0", mutex[4].RMRPerReq)
	}
	if percpu[4].MeanBatch < 1 {
		t.Errorf("percpu mean batch = %v", percpu[4].MeanBatch)
	}
}

func TestServerUniprocRowsCarryQuantiles(t *testing.T) {
	cfg := smallServerConfig()
	cfg.CPUList = []int{1} // keep the guest half minimal
	rows, err := TableServer(&Harness{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, impl := range []string{"ux-single", "ux-percpu"} {
		by := rowsBy(rows, impl)
		if len(by) != 2 {
			t.Fatalf("%s: %d rows, want 2", impl, len(by))
		}
		for shards, r := range by {
			if r.P50 == 0 || r.P95 < r.P50 || r.P99 < r.P95 {
				t.Errorf("%s/%d: quantiles %d/%d/%d not monotone and positive",
					impl, shards, r.P50, r.P95, r.P99)
			}
			if r.Requests != uint64(cfg.UXClients*cfg.UXRequests) {
				t.Errorf("%s/%d: requests = %d", impl, shards, r.Requests)
			}
		}
	}
	if s := FormatServer(rows); len(s) == 0 {
		t.Error("empty render")
	}
}

// The shipped default must actually replay a million requests.
func TestDefaultServerConfigBudget(t *testing.T) {
	cfg := DefaultServerConfig()
	guestReqs := 0
	for _, cpus := range cfg.CPUList {
		guestReqs += cpus * cfg.Clients * cfg.Iters // percpu
		guestReqs += cpus * cfg.Clients * cfg.MutexIters
	}
	guestReqs *= len(cfg.Modes)
	uxReqs := 2 * len(cfg.Shards) * cfg.UXClients * cfg.UXRequests
	if total := guestReqs + uxReqs; total < 1_000_000 {
		t.Errorf("default sweep replays %d requests, want >= 1e6", total)
	}
}
