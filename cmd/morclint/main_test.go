package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"morc/internal/analysis"
)

// fixture returns the absolute path of an analysis fixture package, so
// the CLI can be pointed at it from this package's working directory.
func fixture(t *testing.T, name string) string {
	t.Helper()
	p, err := filepath.Abs(filepath.Join("..", "..", "internal", "analysis", "testdata", "src", name))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	for _, name := range analysis.PassNames(analysis.AllPasses()) {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing pass %s:\n%s", name, out.String())
		}
	}
}

func TestUnknownPass(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-passes", "nosuchpass"}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errb.String(), "unknown pass") {
		t.Errorf("stderr: %s", errb.String())
	}
	// The error names every valid pass so the fix is one copy-paste away.
	for _, name := range analysis.PassNames(analysis.AllPasses()) {
		if !strings.Contains(errb.String(), name) {
			t.Errorf("unknown-pass message missing valid pass %s:\n%s", name, errb.String())
		}
	}
}

func TestRemovedPassIsUnknown(t *testing.T) {
	// detrand was folded into dettaint, and ctxleak gave way to go vet's
	// lostcancel check; asking for either by name is an error, not a
	// silently empty run.
	for _, removed := range []string{"detrand", "ctxleak"} {
		t.Run(removed, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run([]string{"-passes", removed, fixture(t, "dettaint")}, &out, &errb); code != 2 {
				t.Fatalf("exit %d, want 2; stderr: %s", code, errb.String())
			}
			if !strings.Contains(errb.String(), `unknown pass "`+removed+`"`) {
				t.Errorf("stderr does not name the unknown pass: %s", errb.String())
			}
		})
	}
}

func TestCallGraphDump(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-callgraph", fixture(t, "hotalloc")}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "stepAccess -> ") {
		t.Errorf("-callgraph output missing root edges:\n%s", out.String())
	}
	// Deterministic: a second run renders byte-identical output.
	var out2, errb2 bytes.Buffer
	run([]string{"-callgraph", fixture(t, "hotalloc")}, &out2, &errb2)
	if out.String() != out2.String() {
		t.Error("-callgraph output is not deterministic across runs")
	}
}

func TestPerPassTiming(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-time", fixture(t, "invariants_tested")}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, errb.String())
	}
	for _, name := range analysis.PassNames(analysis.AllPasses()) {
		if !strings.Contains(errb.String(), name) {
			t.Errorf("-time output missing pass %s:\n%s", name, errb.String())
		}
	}
	if !strings.Contains(errb.String(), "ms") {
		t.Errorf("-time output missing durations:\n%s", errb.String())
	}
}

func TestFixtureFindingsExitNonzero(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{fixture(t, "dettaint")}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "[dettaint]") {
		t.Errorf("output missing dettaint diagnostics:\n%s", out.String())
	}
}

func TestJSONOutput(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", fixture(t, "spanbalance")}, &out, &errb)
	if code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if len(diags) == 0 {
		t.Fatal("no diagnostics decoded")
	}
	for _, d := range diags {
		if d.Pass != "spanbalance" || d.File == "" || d.Line == 0 || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
	}
}

func TestJSONOutputIsDeterministicallyOrdered(t *testing.T) {
	// Two fixture packages with findings from different passes: the JSON
	// array must come out sorted by file, line, column, then pass, and be
	// byte-identical across runs.
	args := []string{"-json", fixture(t, "dettaint"), fixture(t, "lockhold")}
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, out.String())
	}
	if len(diags) < 2 {
		t.Fatalf("want findings from both fixtures, got %d", len(diags))
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		ka := [3]interface{}{a.File, a.Line, a.Col}
		kb := [3]interface{}{b.File, b.Line, b.Col}
		ordered := a.File < b.File ||
			(a.File == b.File && (a.Line < b.Line ||
				(a.Line == b.Line && (a.Col < b.Col ||
					(a.Col == b.Col && a.Pass <= b.Pass)))))
		if !ordered {
			t.Fatalf("diagnostics out of order at %d: %v then %v", i, ka, kb)
		}
	}
	var out2, errb2 bytes.Buffer
	run(args, &out2, &errb2)
	if out.String() != out2.String() {
		t.Error("-json output is not byte-identical across runs")
	}
}

func TestCleanPackageExitsZeroWithEmptyJSONArray(t *testing.T) {
	var out, errb bytes.Buffer
	code := run([]string{"-json", fixture(t, "invariants_tested")}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d, want 0; stdout: %s stderr: %s", code, out.String(), errb.String())
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("JSON output = %q, want []", got)
	}
}

func TestPassFilter(t *testing.T) {
	// The dettaint fixture is only in scope for dettaint; running just the
	// lockhold pass over it must be clean.
	var out, errb bytes.Buffer
	if code := run([]string{"-passes", "lockhold", fixture(t, "dettaint")}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0; stdout: %s stderr: %s", code, out.String(), errb.String())
	}
}
