package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// goldenCases are the rasvm command lines the package doc, README.md and
// EXPERIMENTS.md show, minus the ones that need a file from elsewhere.
// They run in order in one scratch directory, so "restore" replays the
// snapshot "counter-crash-checkpoint" wrote. Each case's stdout must
// match testdata/<name>.golden byte for byte, and its exit status (0 or
// 1) must match fails.
var goldenCases = []struct {
	name, line string
	fails      bool
}{
	{"counter-none", "-demo counter -strategy none -mech none -quantum 37", false},
	{"counter-registered", "-demo counter -strategy registration -mech registered -quantum 37", false},
	{"counter-designated", "-demo counter -strategy designated -workers 4 -iters 1000", false},
	{"counter-watchdog-abort", "-demo counter -strategy designated -mech designated -check resume -quantum 3 -watchdog abort", true},
	{"counter-watchdog-extend", "-demo counter -strategy designated -mech designated -check resume -quantum 3 -watchdog extend", false},
	{"counter-timeout", "-demo counter -strategy designated -mech designated -check resume -quantum 3 -timeout 100000", true},
	{"counter-taos-mutex", "-demo counter -mech taos-mutex -strategy designated -check resume", false},
	{"counter-observe", "-demo counter -strategy registration -quantum 53 -iters 60 -workers 2 -trace-out run.json -metrics - -profile 10", false},
	{"counter-crash-checkpoint", "-demo counter -iters 200 -quantum 500 -crash-at 3000 -checkpoint ck.bin", true},
	{"restore", "-restore ck.bin", false},
	{"counter-crash-8000", "-demo counter -crash-at 8000 -checkpoint ck.bin", true},
	{"recoverable-readme", "-demo recoverable -workers 3 -iters 50 -quantum 300 -kill-at 2000,5000", false},
	{"recoverable-doc", "-demo recoverable -kill-at 5000,9000", false},
	{"persistent-readme", "-demo persistent -workers 2 -iters 50 -crash-at 500", false},
	{"persistent-doc", "-demo persistent -crash-at 4000", false},
	{"journal", "-demo journal -crash-at 300", false},
	{"journal-torn", "-demo journal -crash-at 300 -torn", false},
	{"journal-nofence-torn", "-demo journal -log nofence -crash-at 300 -torn", false},
	{"smp-hybrid", "-demo smp -cpus 4", false},
	{"smp-ras-only", "-demo smp -cpus 2 -lock ras-only", false},
	{"server-percpu", "-demo server -variant percpu -cpus 4", false},
	{"server-doc", "-demo server -cpus 4", false},
	{"server-mutex", "-demo server -cpus 2 -variant mutex", false},
	{"server-racy", "-demo server -variant racy", false},
	{"server-quantum", "-demo server -cpus 4 -quantum 500", false},
	{"qlock-mcs", "-demo qlock -lock mcs -cpus 8", false},
	{"qlock-rmcs-kill", "-demo qlock -lock rmcs -cpus 2 -kill-at 300", false},
	{"resilience-default", "-demo resilience", false},
	{"resilience-step", "-demo resilience -plan crashplan:seed=0x1,point=step,span=230,crashes=1000,mix=1:2:1", false},
	{"resilience-persist", "-demo resilience -plan crashplan:seed=0x1,point=persist,span=25,crashes=120,mix=1:2:1", false},
	// Once a double apply: a clean crash kept stale NVM images that a
	// later volatile or torn crash reverted to.
	{"resilience-seed2", "-demo resilience -plan crashplan:seed=0x2,point=step,span=230,crashes=1000,mix=1:2:1", false},
}

func TestGolden(t *testing.T) {
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, c := range goldenCases {
		o, _ := parseFlags(strings.Fields(c.line))
		var out bytes.Buffer
		err := run(&out, o)
		if (err != nil) != c.fails {
			t.Errorf("%s: rasvm %s: err = %v, want failure %v", c.name, c.line, err, c.fails)
		}
		want, rerr := os.ReadFile(filepath.Join(wd, "testdata", c.name+".golden"))
		if rerr != nil {
			t.Fatal(rerr)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%s: rasvm %s: stdout differs from golden\n got:\n%s\nwant:\n%s", c.name, c.line, out.Bytes(), want)
		}
	}
}

// Every demo has at least one golden case.
func TestGoldenCoversEveryDemo(t *testing.T) {
	for _, s := range scenarios {
		covered := false
		for _, c := range goldenCases {
			covered = covered || strings.HasPrefix(c.line+" ", "-demo "+s.name+" ")
		}
		if !covered {
			t.Errorf("demo %q has no golden case", s.name)
		}
	}
}

// Each campaign row of the resilience table replays through the demo
// from the plan it prints: same boots, crashes, recovery crashes and
// availability.
func TestResilienceRowsReplay(t *testing.T) {
	rows, err := bench.TableResilience(&bench.Harness{}, bench.DefaultResilienceConfig())
	if err != nil {
		t.Fatal(err)
	}
	replayed := 0
	for _, r := range rows {
		if !strings.HasPrefix(r.Plan, "crashplan:") {
			continue
		}
		o, _ := parseFlags([]string{"-demo", "resilience", "-plan", r.Plan})
		var out bytes.Buffer
		if err := run(&out, o); err != nil {
			t.Errorf("%s: replay: %v", r.Scenario, err)
		}
		for _, want := range []string{
			fmt.Sprintf("boots=%d crashes=%d(rec %d) ", r.Boots, r.Crashes, r.RecCrashes),
			fmt.Sprintf(" avail=%.4f ", r.Avail),
		} {
			if !strings.Contains(out.String(), want) {
				t.Errorf("%s: replay of %s lacks %q:\n%s", r.Scenario, r.Plan, want, out.String())
			}
		}
		replayed++
	}
	if replayed != 2 {
		t.Errorf("replayed %d campaign rows, want 2", replayed)
	}
}
