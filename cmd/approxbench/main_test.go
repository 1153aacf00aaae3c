package main

import (
	"strings"
	"testing"

	"approxobj"
	"approxobj/internal/bench"
)

// TestKindCoverageAccumulatesAllProblems drives the startup gate with a
// table that has several independent gaps and checks every one is
// reported — the gate must not stop at the first problem, so one
// fix-run cycle names all the missing scenarios.
func TestKindCoverageAccumulatesAllProblems(t *testing.T) {
	kinds := []approxobj.KindPolicy{
		{Kind: approxobj.KindCounter},                                                                                           // no scenario at all
		{Kind: approxobj.KindMaxRegister, BenchScenario: "E-nowhere"},                                                           // declared but unemitted
		{Kind: approxobj.KindSnapshot, BenchScenario: "E-ok", StaleTerm: "trails"},                                              // missing read scenario
		{Kind: approxobj.KindHistogram, BenchScenario: "E-ok", WindowTerm: "folds the last d"},                                  // missing window scenario
		{Kind: approxobj.KindCounter, BenchScenario: "E-ok", WindowTerm: "x", WindowBenchScenario: "E-no"},                      // window scenario unemitted
		{Kind: approxobj.KindCounter, BenchScenario: "E-ok", Accuracies: []string{"exact", "randomized"}},                       // missing frontier scenario
		{Kind: approxobj.KindCounter, BenchScenario: "E-ok", Accuracies: []string{"randomized"}, FrontierBenchScenario: "E-no"}, // frontier scenario unemitted
	}
	problems := kindCoverageProblems(kinds, map[string]bool{"E-ok": true})
	if len(problems) != 7 {
		t.Fatalf("want all 7 problems reported, got %d:\n%s", len(problems), strings.Join(problems, "\n"))
	}
	for i, want := range []string{
		"declares no bench scenario",
		`bench scenario "E-nowhere", which no experiment`,
		"declares no read-dominated bench scenario",
		"declares no windowed bench scenario",
		`window bench scenario "E-no", which no experiment`,
		"declares no deterministic-vs-randomized frontier bench scenario",
		`frontier bench scenario "E-no", which no experiment`,
	} {
		if !strings.Contains(problems[i], want) {
			t.Errorf("problem %d = %q, want it to mention %q", i, problems[i], want)
		}
	}
}

// TestKindCoverageCleanTable checks the real backend table against the
// real experiment declarations — the gate must pass on the shipped
// configuration.
func TestKindCoverageCleanTable(t *testing.T) {
	declared := map[string]bool{}
	for _, exp := range bench.All() {
		for _, sc := range exp.Scenarios {
			declared[sc] = true
		}
	}
	if problems := kindCoverageProblems(approxobj.Kinds(), declared); len(problems) > 0 {
		t.Fatalf("startup gate fails on the shipped table:\n%s", strings.Join(problems, "\n"))
	}
}

// TestCompareRecordsAccumulatesAllProblems checks that -compare reports
// every regression in one pass: a missing scenario, three widened
// envelope terms (including the float-valued Delta term), and a
// steps/op regression must all appear.
func TestCompareRecordsAccumulatesAllProblems(t *testing.T) {
	baseline := []bench.Record{
		{Scenario: "GONE", Params: map[string]string{"k": "1"}},
		{Scenario: "A", Params: map[string]string{"k": "1"}, Envelope: &bench.RecordEnvelope{Mult: 2, Window: 1000, Delta: 0.01}},
		{Scenario: "B", Params: map[string]string{"k": "1"}, StepsPerOp: 10},
	}
	current := []bench.Record{
		{Scenario: "A", Params: map[string]string{"k": "1"}, Envelope: &bench.RecordEnvelope{Mult: 4, Window: 2000, Delta: 0.05}},
		{Scenario: "B", Params: map[string]string{"k": "1"}, StepsPerOp: 100},
	}
	problems, missing := compareRecords(baseline, current, 50, func(string) bool { return true })
	if len(missing) != 1 || missing[0] != "GONE|k=1" {
		t.Errorf("missing cells = %v, want [GONE|k=1]", missing)
	}
	if len(problems) != 5 {
		t.Fatalf("want 5 problems (missing scenario, Mult, Window, Delta, steps), got %d:\n%s",
			len(problems), strings.Join(problems, "\n"))
	}
	for _, want := range []string{
		`baseline scenario "GONE" is missing`,
		"Mult widened 2 -> 4",
		"Window widened 1000 -> 2000",
		"Delta widened 0.01 -> 0.05",
		"steps/op regressed",
	} {
		found := false
		for _, p := range problems {
			if strings.Contains(p, want) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no problem mentions %q:\n%s", want, strings.Join(problems, "\n"))
		}
	}
}

// TestCompareRecordsClean checks the no-regression path: identical
// records produce no problems.
func TestCompareRecordsClean(t *testing.T) {
	recs := []bench.Record{
		{Scenario: "A", Params: map[string]string{"k": "1"}, Envelope: &bench.RecordEnvelope{Mult: 2, Stale: 5, Window: 7}, StepsPerOp: 3},
	}
	if problems, missing := compareRecords(recs, recs, 50, func(string) bool { return true }); len(problems) != 0 || len(missing) != 0 {
		t.Fatalf("identical records flagged: problems %v, missing %v", problems, missing)
	}
}

// TestCompareRecordsListsMissingCells checks that baseline cells absent
// from this run are reported, not skipped silently, and that cells of
// scenarios outside the run's scope are left out of the list.
func TestCompareRecordsListsMissingCells(t *testing.T) {
	baseline := []bench.Record{
		{Scenario: "A", Params: map[string]string{"n": "2"}},
		{Scenario: "A", Params: map[string]string{"n": "64"}},
		{Scenario: "B", Params: map[string]string{"n": "64"}},
	}
	current := []bench.Record{{Scenario: "A", Params: map[string]string{"n": "2"}}}
	problems, missing := compareRecords(baseline, current, 50, func(sc string) bool { return sc == "A" })
	if len(problems) != 0 {
		t.Errorf("unexpected problems: %v", problems)
	}
	if len(missing) != 1 || missing[0] != "A|n=64" {
		t.Errorf("missing cells = %v, want [A|n=64]", missing)
	}
}

// TestModeMismatch checks that -compare refuses a baseline recorded in
// another mode: a different quick flag or seed makes the records
// incomparable, whatever they contain.
func TestModeMismatch(t *testing.T) {
	base := resultFile{Quick: true, Seed: 0}
	if p := modeMismatch(base, true, 0); p != "" {
		t.Errorf("same mode rejected: %s", p)
	}
	for _, tc := range []struct {
		quick bool
		seed  int64
	}{{false, 0}, {true, 1}, {false, 7}} {
		if p := modeMismatch(base, tc.quick, tc.seed); p == "" {
			t.Errorf("baseline -quick=true -seed 0 accepted for a run with -quick=%t -seed %d", tc.quick, tc.seed)
		}
	}
}
