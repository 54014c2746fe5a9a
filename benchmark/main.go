// Command benchmark measures the repository end to end and layer by
// layer, on four workloads that stress different layers:
//
//	vm-ras        the paper's mechanism under chaos on the ISA-level kernel
//	mcheck-suite  the model checker's canned suite (rascheck -suite)
//	ux-server     closed-loop file requests on the uniproc request plane
//	vm-crash      E27 crash-restart campaigns with the supervisor
//
// Run one workload, printing its end-to-end metrics (or with -trace 1 its
// per-layer metrics) and, as the last line, a JSON result:
//
//	bash benchmark/run.sh -workload vm-ras -seed 1 -seconds 15 -trace 0
//
// Run every workload, each in a fresh child process, untraced and then
// traced, and save the results:
//
//	bash benchmark/run.sh -workload all -seed 1 -json out.json -trace t.json
//
// Compare two saved result files against the bounds in BENCHMARK.json:
//
//	bash benchmark/run.sh -compare base.json new.json
//
// See README.md for the workloads, metrics and layer map.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// workloadNames lists the workloads in the order -workload all runs them.
var workloadNames = []string{"vm-ras", "mcheck-suite", "ux-server", "vm-crash"}

func newWorkload(name string, seed uint64, smoke bool) (workload, error) {
	switch name {
	case "vm-ras":
		return newVMRAS(seed, smoke), nil
	case "mcheck-suite":
		return newMcheckSuite(seed, smoke), nil
	case "ux-server":
		return newUXServer(seed, smoke), nil
	case "vm-crash":
		return newVMCrash(seed, smoke), nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(workloadNames, ", "))
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// errIncorrect reports a run whose outputs failed their checks; its
// result was still printed.
var errIncorrect = errors.New("outputs incorrect")

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed every input is derived from")
	seconds := fs.Float64("seconds", 15, "measure whole passes for at least this long")
	trace := fs.String("trace", "0", "0: end-to-end metrics; 1: a traced run with per-layer metrics; FILE: as 1, and write the spans to FILE as Chrome trace JSON")
	jsonOut := fs.String("json", "", "also write the results to this file")
	compare := fs.Bool("compare", false, "compare two -json files: -compare base.json new.json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout)
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *seconds < 0 {
		return errors.New("-seconds must not be negative")
	}
	if *name == "all" {
		return runAll(*seed, *seconds, *trace, *jsonOut, stdout)
	}
	w, err := newWorkload(*name, *seed, false)
	if err != nil {
		return err
	}
	traced := *trace != "0"
	res, tr, err := measureRun(*name, w, *seed, *seconds, traced)
	if err != nil {
		return err
	}
	if traced && *trace != "1" {
		if err := tr.writeChrome(*trace, *name); err != nil {
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	if err := printResult(stdout, res); err != nil {
		return err
	}
	if *jsonOut != "" {
		if err := writeResults(*jsonOut, []result{res}); err != nil {
			return err
		}
	}
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// printResult prints every metric as "workload metric value unit", then
// the JSON result line.
func printResult(w io.Writer, res result) error {
	set := endToEnd
	if res.Trace {
		set = perLayer
	}
	for _, m := range set {
		v := res.Metrics[m.name]
		fmt.Fprintf(w, "%s %s %v %s\n", res.Workload, m.name, v.Value, v.Unit)
	}
	fmt.Fprintf(w, "%s attempted %d failed %d fail_ratio %v passes %d latency_samples %d gomaxprocs %d\n",
		res.Workload, res.Attempted, res.Failed, ratio(float64(res.Failed), float64(res.Attempted)),
		res.Passes, res.Samples, res.GOMAXPROCS)
	line, err := json.Marshal(struct {
		Correct   bool               `json:"correct"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Metrics   map[string]measure `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func writeResults(path string, rs []result) error {
	data, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResults(path string) ([]result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs []result
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rs, nil
}

// runAll runs every workload in a fresh child process, untraced, and
// traced too unless trace is "0"; it prints each child's metrics and each
// workload's tracing overhead.
func runAll(seed uint64, seconds float64, trace, jsonOut string, stdout io.Writer) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	var all []result
	for _, name := range workloadNames {
		plain, err := runChild(self, stdout, name, seed, seconds, "0")
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		all = append(all, plain)
		if trace == "0" {
			continue
		}
		t := trace
		if t != "1" {
			t = strings.TrimSuffix(trace, ".json") + "." + name + ".json"
		}
		traced, err := runChild(self, stdout, name, seed, seconds, t)
		if err != nil {
			return fmt.Errorf("%s traced: %w", name, err)
		}
		all = append(all, traced)
		fmt.Fprintf(stdout, "%s trace_overhead %v ratio\n", name,
			ratio(traced.Metrics["trace.pass_s"].Value, plain.Metrics["pass_s"].Value)-1)
	}
	incorrect := false
	for _, r := range all {
		incorrect = incorrect || !r.Correct
	}
	if jsonOut != "" {
		if err := writeResults(jsonOut, all); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

// runChild runs one workload in a child process, relaying its metric
// lines and decoding its JSON result line.
func runChild(self string, stdout io.Writer, name string, seed uint64, seconds float64, trace string) (result, error) {
	cmd := exec.Command(self, "-workload", name, "-seed", strconv.FormatUint(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", trace)
	cmd.Stderr = os.Stderr
	var out bytes.Buffer
	cmd.Stdout = &out
	runErr := cmd.Run()
	lines := strings.Split(strings.TrimRight(out.String(), "\n"), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(stdout, l)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		if runErr != nil {
			return res, runErr
		}
		return res, fmt.Errorf("no result line: %w", err)
	}
	res.Workload, res.Seed, res.Trace, res.GOMAXPROCS = name, seed, trace != "0", runtime.GOMAXPROCS(0)
	return res, nil
}
