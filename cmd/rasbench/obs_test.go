package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestJSONResultsPerTable(t *testing.T) {
	path := filepath.Join(t.TempDir(), "results.json")
	o := benchOpts{table: "2", iters: 500, scale: 1, jsonOut: path}
	if err := runOpts(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var results []tableResult
	if err := json.Unmarshal(data, &results); err != nil {
		t.Fatalf("results not valid JSON: %v", err)
	}
	assertSnakeKeys(t, data)
	if len(results) != 1 || results[0].Name != "2" {
		t.Fatalf("results = %+v, want one record for table 2", results)
	}
	r := results[0]
	if r.Runs == 0 || r.Cycles == 0 {
		t.Errorf("empty aggregate: %+v", r)
	}
	// Table 2 exercises the emulation rows: trap counts must be recorded.
	if r.EmulTraps == 0 {
		t.Errorf("traps = 0, want nonzero for table 2's emulation runs: %+v", r)
	}
}

// snakeKey is the one key style of every -json record and row.
var snakeKey = regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)

// assertSnakeKeys fails the test on any object key in data, at any depth,
// that is not snake_case.
func assertSnakeKeys(t *testing.T, data []byte) {
	t.Helper()
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var walk func(v any)
	walk = func(v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				if !snakeKey.MatchString(k) {
					t.Errorf("JSON key %q is not snake_case", k)
				}
				walk(e)
			}
		case []any:
			for _, e := range v {
				walk(e)
			}
		}
	}
	walk(doc)
}

// Under -table all, each record must carry only its own table's rows and
// counters: it must equal the record the same table produces run alone.
func TestJSONAllTablesOwnRows(t *testing.T) {
	dir := t.TempDir()
	records := func(table string) []json.RawMessage {
		t.Helper()
		path := filepath.Join(dir, table+".json")
		o := benchOpts{table: table, iters: 500, scale: 1, cpus: "1", jsonOut: path}
		if err := runOpts(o); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		assertSnakeKeys(t, data)
		var recs []json.RawMessage
		if err := json.Unmarshal(data, &recs); err != nil {
			t.Fatal(err)
		}
		return recs
	}
	all := records("all")
	if len(all) != len(tables) {
		t.Fatalf("-table all wrote %d records, want %d", len(all), len(tables))
	}
	for i, tb := range tables {
		alone := records(tb.name)
		if len(alone) != 1 || !bytes.Equal(all[i], alone[0]) {
			t.Errorf("table %s: record under -table all differs from its solo run\nall:  %.400s\nsolo: %.400s", tb.name, all[i], alone)
		}
		var rec tableResult
		if err := json.Unmarshal(all[i], &rec); err != nil {
			t.Fatal(err)
		}
		if rec.Name != tb.name {
			t.Errorf("record %d is %q, want %q", i, rec.Name, tb.name)
		}
	}
}

// Every -json record traces its table back to the runs behind it: it
// carries the table's rows, snake_case keys only, and the counters of at
// least one harness run.
func TestJSONEveryRecordHasRowsAndRuns(t *testing.T) {
	path := filepath.Join(t.TempDir(), "all.json")
	if err := runOpts(benchOpts{table: "all", iters: 500, scale: 1, cpus: "1", jsonOut: path}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSnakeKeys(t, data)
	var recs []struct {
		Name string            `json:"name"`
		Runs int               `json:"runs"`
		Rows []json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(data, &recs); err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(tables) {
		t.Fatalf("-table all wrote %d records, want %d", len(recs), len(tables))
	}
	for _, r := range recs {
		if len(r.Rows) == 0 {
			t.Errorf("table %s: no rows in its -json record", r.Name)
		}
		// The one exception: the resilience campaigns run inside
		// internal/resilience's supervisor, which reaches the harness
		// only after ROADMAP item 1 reworks it.
		if r.Runs == 0 && r.Name != "resilience" {
			t.Errorf("table %s: runs = 0, want every substrate run counted", r.Name)
		}
	}
}

func TestTraceOutAcrossRuns(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.txt")
	o := benchOpts{table: "2", iters: 500, scale: 1,
		traceOut: tracePath, metrics: metricsPath}
	if err := runOpts(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := obs.DecodeChromeTrace(data)
	if err != nil {
		t.Fatal(err)
	}
	// The rebased multi-run stream must still satisfy the structural
	// invariants: monotone per-track timestamps, balanced slices.
	if _, err := obs.ValidateChrome(doc); err != nil {
		t.Fatalf("multi-run trace invalid: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty trace")
	}
	md, err := os.ReadFile(metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(md), "emul_traps_total") ||
		!strings.Contains(string(md), "dispatches_total") {
		t.Errorf("metrics dump incomplete:\n%s", md)
	}
}

func TestJSONToStdoutPath(t *testing.T) {
	// "-" routes to stdout; just verify the path does not error.
	if err := runOpts(benchOpts{table: "1", iters: 200, scale: 1, jsonOut: "-"}); err != nil {
		t.Fatal(err)
	}
}
