package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/mcheck"
)

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errw strings.Builder
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

func TestList(t *testing.T) {
	code, out, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	for _, want := range []string{"counter", "broken2store", "smp-counter", "uni-rme"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list missing %q:\n%s", want, out)
		}
	}
}

func TestExplorePass(t *testing.T) {
	code, out, errw := runCLI(t,
		"-model", "counter", "-params", "mech=registered", "-out", t.TempDir())
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out, errw)
	}
	if !strings.Contains(out, "exhaustive") {
		t.Errorf("no report line:\n%s", out)
	}
}

// A violation run writes the .sched artifact, prints the replay command,
// and — with -expect violation — exits 0; the artifact then replays.
func TestExploreViolationArtifactAndReplay(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "report.json")
	code, out, errw := runCLI(t,
		"-model", "broken2store", "-max-decisions", "1",
		"-expect", "violation", "-out", dir, "-json", jsonPath)
	if code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out, errw)
	}
	sched := filepath.Join(dir, "broken2store.sched")
	if _, err := os.Stat(sched); err != nil {
		t.Fatalf("no .sched artifact: %v\n%s", err, out)
	}
	if !strings.Contains(out, "replay: rascheck -replay") {
		t.Errorf("no replay command printed:\n%s", out)
	}
	if data, err := os.ReadFile(jsonPath); err != nil || !strings.Contains(string(data), "broken2store") {
		t.Errorf("JSON report missing or wrong: %v", err)
	}

	trace := filepath.Join(dir, "replay.json")
	code, out, errw = runCLI(t,
		"-replay", sched, "-expect", "violation", "-trace-out", trace)
	if code != 0 {
		t.Fatalf("replay exit %d\n%s%s", code, out, errw)
	}
	if !strings.Contains(out, "violation:") {
		t.Errorf("replay reproduced nothing:\n%s", out)
	}
	if data, err := os.ReadFile(trace); err != nil || !strings.Contains(string(data), "traceEvents") {
		t.Errorf("Chrome trace missing or malformed: %v", err)
	}
}

// An unexpected outcome exits 1 and prints the one-line repro.
func TestExploreUnexpectedOutcome(t *testing.T) {
	code, _, errw := runCLI(t,
		"-model", "broken2store", "-max-decisions", "1", "-out", t.TempDir())
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(errw, "repro: rascheck -model broken2store") {
		t.Errorf("no repro line:\n%s", errw)
	}

	// A parameter value with spaces stays one shell word.
	_, _, errw = runCLI(t, "-model", "pstruct", "-params", "script=1 2",
		"-max-decisions", "1", "-expect", "violation", "-out", t.TempDir())
	if !strings.Contains(errw, "repro: rascheck -model pstruct -params 'script=1 2' ") {
		t.Errorf("repro line does not quote the script:\n%s", errw)
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-model", "no-such-model"},
		{"-model", "counter", "-params", "nonsense"},
		{"-model", "counter", "-params", "mech=registered", "-mode", "psychic"},
		{"-model", "counter", "-expect", "violaton"},
		{"-replay", "/does/not/exist.sched"},
	} {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

// -trace-out traces only a replay; with -model or -suite it would write
// nothing, so it is refused by name before anything runs.
func TestTraceOutNeedsReplay(t *testing.T) {
	for _, args := range [][]string{
		{"-model", "counter", "-max-decisions", "1"},
		{"-suite"},
	} {
		trace := filepath.Join(t.TempDir(), "rc.json")
		code, _, errw := runCLI(t, append(args, "-trace-out", trace)...)
		if code != 2 || !strings.Contains(errw, "-trace-out") {
			t.Errorf("args %v: exit %d, stderr %q; want 2 naming -trace-out", args, code, errw)
		}
		if _, err := os.Stat(trace); err == nil {
			t.Errorf("args %v: refused run still wrote %s", args, trace)
		}
	}
}

// A smoke test of the suite runner on two canned entries, one expected
// pass and one expected violation. The full suite runs once in
// internal/mcheck's TestSuite; `make check` and CI run it through this CLI.
func TestSuite(t *testing.T) {
	var ents []mcheck.SuiteEntry
	expects := map[string]int{}
	for _, ent := range mcheck.Suite() {
		if ent.Model == "uni-counter" && ent.Over["sync"] == "ras" ||
			ent.Model == "broken2store" && ent.Mode == "exhaustive" {
			ents = append(ents, ent)
			expects[ent.Expect]++
		}
	}
	if len(ents) != 2 || expects["pass"] != 1 || expects["violation"] != 1 {
		t.Fatalf("picked %d suite entries %v, want one expected pass and one expected violation", len(ents), expects)
	}
	var out, errw strings.Builder
	c := config{outDir: t.TempDir()}
	if code := runSuite(&c, ents, &out, &errw); code != 0 {
		t.Fatalf("exit %d\n%s%s", code, out.String(), errw.String())
	}
	if !strings.Contains(out.String(), "suite: all checks matched expectations") {
		t.Errorf("no final verdict:\n%s", out.String())
	}
	if !regexp.MustCompile(`(?m)^model +entries +schedules +states +pruned +violations +wall +sched/s$`).MatchString(out.String()) {
		t.Errorf("no per-model summary header with a sched/s column:\n%s", out.String())
	}
	if !regexp.MustCompile(`(?m)^total +2 +\d+ +\d+ +\S+ +\d+$`).MatchString(out.String()) {
		t.Errorf("no total row ending in a schedules/s figure:\n%s", out.String())
	}
	if n := strings.Count(out.String(), "ok  "); n != 2 {
		t.Errorf("%d suite entries ok, want 2:\n%s", n, out.String())
	}
	if !strings.Contains(out.String(), "counterexample: ") {
		t.Errorf("expected violation saved no counterexample:\n%s", out.String())
	}
}
