package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
)

// spec is the part of BENCHMARK.json the benchmark reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root, which is the
// working directory or its parent.
func loadSpec() (spec, error) {
	var sp spec
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		data, err := os.ReadFile(p)
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			return sp, err
		}
		if err := json.Unmarshal(data, &sp); err != nil {
			return sp, fmt.Errorf("%s: %w", p, err)
		}
		return sp, nil
	}
	return sp, errors.New("BENCHMARK.json not found in . or ..")
}

// compareFiles prints a verdict for every (workload, end-to-end metric)
// pair the two result files share: better, same, worse, or unresolved
// when the runs spread wider than the metric's bound. Exact metrics are
// compared seed by seed. It fails if any pair is worse.
func compareFiles(basePath, newPath string, w io.Writer) error {
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	base, err := readResults(basePath)
	if err != nil {
		return err
	}
	next, err := readResults(newPath)
	if err != nil {
		return err
	}
	exact := map[string]bool{}
	for _, m := range endToEnd {
		exact[m.name] = m.exact
	}
	fmt.Fprintf(w, "%-13s %-20s %14s %14s %9s  %s\n", "workload", "metric", "base", "new", "change", "verdict")
	worse := 0
	for _, wl := range workloadNames {
		for _, m := range sp.EndToEnd {
			b, n := runsOf(base, wl, m.Name), runsOf(next, wl, m.Name)
			if len(b) == 0 || len(n) == 0 {
				continue
			}
			mb, mn := quantile(values(b), 0.5), quantile(values(n), 0.5)
			higher := m.Better == "higher"
			var v string
			if exact[m.Name] {
				v = exactVerdict(b, n, mb, mn, higher)
			} else {
				v = boundedVerdict(b, n, higher, m.Bound)
			}
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(w, "%-13s %-20s %14.6g %14.6g %+8.2f%%  %s\n", wl, m.Name, mb, mn, 100*(ratio(mn, mb)-1), v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d metric(s) worse", worse)
	}
	return nil
}

// runsOf maps seed to value for the untraced runs of one workload.
func runsOf(rs []result, workload, metric string) map[uint64]float64 {
	out := map[uint64]float64{}
	for _, r := range rs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Trace {
			out[r.Seed] = v.Value
		}
	}
	return out
}

func values(runs map[uint64]float64) []float64 {
	vs := make([]float64, 0, len(runs))
	for _, v := range runs {
		vs = append(vs, v)
	}
	return vs
}

// exactVerdict: a simulated metric is the same only if every seed both
// sides ran reads identically.
func exactVerdict(b, n map[uint64]float64, mb, mn float64, higher bool) string {
	same := true
	for seed, v := range b {
		if nv, ok := n[seed]; ok && nv != v {
			same = false
		}
	}
	switch {
	case same:
		return "same"
	case (mn > mb) == higher:
		return "better"
	}
	return "worse"
}

// boundedVerdict applies the benchmark's rule for host metrics. Worse:
// the new median is worse than the base median by more than bound.
// Better: the new side wins at least nine in ten paired runs and the
// medians differ by more than the base runs' interquartile range.
// Unresolved: either side's interquartile range exceeds bound, unless
// every new run beats every base run.
// Runs pair up by seed.
func boundedVerdict(b, n map[uint64]float64, higher bool, bound float64) string {
	better := func(x, y float64) bool { return (x > y) == higher && x != y }
	bv, nv := values(b), values(n)
	mb, mn := quantile(bv, 0.5), quantile(nv, 0.5)
	iqr := func(v []float64) float64 { return quantile(v, 0.75) - quantile(v, 0.25) }
	if ratio(iqr(bv), mb) > bound || ratio(iqr(nv), mn) > bound {
		for _, x := range nv {
			for _, y := range bv {
				if !better(x, y) {
					return "unresolved"
				}
			}
		}
		return "better"
	}
	worseBy := ratio(mn-mb, mb)
	if higher {
		worseBy = -worseBy
	}
	if worseBy > bound {
		return "worse"
	}
	pairs, wins := 0, 0
	for seed, y := range b {
		if x, ok := n[seed]; ok {
			pairs++
			if better(x, y) {
				wins++
			}
		}
	}
	if pairs > 0 && 10*wins >= 9*pairs && better(mn, mb) && math.Abs(mn-mb) > iqr(bv) {
		return "better"
	}
	return "same"
}
