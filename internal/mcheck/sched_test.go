package mcheck

import (
	"strings"
	"testing"

	"repro/internal/chaos"
)

func TestSchedRoundTrip(t *testing.T) {
	s := &Schedule{
		Model:  "counter",
		Params: map[string]string{"mech": "none", "workers": "2", "iters": "1"},
		Decisions: []Decision{
			{At: 17, Act: ActPreempt},
			{At: 42, Act: ActKill},
			{At: 99, Act: ActSwitch},
		},
		Note: "minimized from 3 decisions",
	}
	back, err := Parse(s.Format())
	if err != nil {
		t.Fatal(err)
	}
	if back.Model != s.Model {
		t.Errorf("model %q != %q", back.Model, s.Model)
	}
	if len(back.Params) != len(s.Params) {
		t.Errorf("params %v != %v", back.Params, s.Params)
	}
	for k, v := range s.Params {
		if back.Params[k] != v {
			t.Errorf("param %s: %q != %q", k, back.Params[k], v)
		}
	}
	if len(back.Decisions) != len(s.Decisions) {
		t.Fatalf("decisions %v != %v", back.Decisions, s.Decisions)
	}
	for i := range s.Decisions {
		if back.Decisions[i] != s.Decisions[i] {
			t.Errorf("decision %d: %v != %v", i, back.Decisions[i], s.Decisions[i])
		}
	}
	if back.Note != s.Note {
		t.Errorf("note %q != %q", back.Note, s.Note)
	}
}

func TestSchedParseSortsDecisions(t *testing.T) {
	in := "model counter\ndecision preempt 9\ndecision preempt 3\n"
	s, err := Parse([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Decisions[0].At != 3 || s.Decisions[1].At != 9 {
		t.Errorf("not sorted: %v", s.Decisions)
	}
}

func TestSchedParseErrors(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"empty", ""},
		{"no-model", "decision preempt 5\n"},
		{"bad-action", "model counter\ndecision explode 5\n"},
		{"zero-ordinal", "model counter\ndecision preempt 0\n"},
		{"bad-ordinal", "model counter\ndecision preempt x\n"},
		{"garbage-line", "model counter\nwibble\n"},
		{"bad-param", "model counter\nparam onlykey\n"},
	} {
		if _, err := Parse([]byte(tc.in)); err == nil {
			t.Errorf("%s: Parse accepted %q", tc.name, tc.in)
		}
	}
}

func TestSchedFileRoundTrip(t *testing.T) {
	path := t.TempDir() + "/x.sched"
	s := &Schedule{Model: "broken2store", Decisions: []Decision{{At: 5, Act: ActPreempt}}}
	if err := s.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Model != "broken2store" || len(back.Decisions) != 1 || back.Decisions[0].At != 5 {
		t.Errorf("round trip lost data: %+v", back)
	}
}

func TestActionStrings(t *testing.T) {
	for _, a := range []Action{ActPreempt, ActKill, ActCrash, ActSwitch} {
		got, err := ParseAction(a.String())
		if err != nil || got != a {
			t.Errorf("ParseAction(%q) = %v, %v", a.String(), got, err)
		}
	}
	if _, err := ParseAction("nope"); err == nil {
		t.Error("ParseAction accepted garbage")
	}
}

func TestParamString(t *testing.T) {
	s := &Schedule{Params: map[string]string{"b": "2", "a": "1"}}
	if got := s.ParamString(); got != "a=1,b=2" {
		t.Errorf("ParamString = %q, want sorted a=1,b=2", got)
	}
	if got := (&Schedule{}).ParamString(); got != "" {
		t.Errorf("empty ParamString = %q", got)
	}
}

func TestFormatIsCommentFriendly(t *testing.T) {
	s := &Schedule{Model: "counter", Decisions: []Decision{{At: 1, Act: ActPreempt}}}
	text := string(s.Format())
	if !strings.HasPrefix(text, "# mcheck schedule") {
		t.Errorf("missing header comment: %q", text)
	}
	// Comments and blank lines must survive a round trip.
	withNoise := "# hand-edited\n\n" + text + "\n# trailing\n"
	if _, err := Parse([]byte(withNoise)); err != nil {
		t.Errorf("comments/blank lines rejected: %v", err)
	}
}

// The schedule injector's Next hint is exact: it names the next decision
// ordinal at the injector's own point, chaos.Never past the last decision
// and at every other point, and At is empty everywhere it skips.
func TestInjectorNext(t *testing.T) {
	for _, ds := range [][]Decision{
		nil,
		{{At: 1, Act: ActPreempt}},
		{{At: 2, Act: ActPreempt}, {At: 9, Act: ActKill}, {At: 9, Act: ActCrash}, {At: 4, Act: ActCrashTorn}},
		{{At: 17, Act: ActCrashVolatile}, {At: 3, Act: ActKill}},
	} {
		in := newInjector(chaos.PointStep, ds)
		for _, p := range []chaos.Point{chaos.PointStep, chaos.PointMemOp} {
			for n := uint64(0); n < 20; n++ {
				m := in.Next(p, n)
				if m < n {
					t.Fatalf("%v %v: Next(%d) = %d", ds, p, n, m)
				}
				for k := n; k < m && k < 20; k++ {
					if a := in.At(p, k); a.Any() {
						t.Fatalf("%v %v: Next(%d) = %d skips At(%d) = %+v", ds, p, n, m, k, a)
					}
				}
				if m != chaos.Never && !in.At(p, m).Any() {
					t.Fatalf("%v %v: Next(%d) = %d names no decision", ds, p, n, m)
				}
			}
		}
	}
}
