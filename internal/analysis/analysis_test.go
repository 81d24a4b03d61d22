package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"path/filepath"
	"regexp"
	"slices"
	"sync"
	"testing"
)

// wantRe extracts `want "regexp"` expectations from fixture comments.
var wantRe = regexp.MustCompile(`want "([^"]+)"`)

// fixtures is the fixture program, loaded once per test binary: no pass
// changes a Program (the call graph is cached on it, and pass state is
// keyed by it), so every test can share one.
var fixtures struct {
	once sync.Once
	prog *Program
	err  error
}

// loadFixtures loads every package under testdata/src in one program so
// the standard library is type-checked once for the whole suite.
func loadFixtures(t *testing.T) *Program {
	t.Helper()
	fixtures.once.Do(func() {
		fixtures.prog, fixtures.err = Load(filepath.Join("testdata", "src"), "./...")
	})
	if fixtures.err != nil {
		t.Fatal(fixtures.err)
	}
	for _, terr := range fixtures.prog.TypeErrors {
		t.Errorf("fixture type error: %v", terr)
	}
	return fixtures.prog
}

// TestFixtures runs the full pass suite over the fixture packages and
// compares every diagnostic against the `want` annotations on the
// flagged lines — in both directions: an unexpected diagnostic fails,
// and an annotation that matches nothing fails.
func TestFixtures(t *testing.T) {
	prog := loadFixtures(t)
	diags := prog.Run(AllPasses())

	type expect struct {
		re      *regexp.Regexp
		matched bool
	}
	wants := map[string][]*expect{} // "file:line" -> expectations
	for _, u := range prog.Units {
		if !u.Lint {
			continue
		}
		for _, f := range append(append([]*ast.File(nil), u.Files...), u.TestFiles...) {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						pos := prog.Fset.Position(c.Pos())
						key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
						wants[key] = append(wants[key], &expect{re: regexp.MustCompile(m[1])})
					}
				}
			}
		}
	}

	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.File, d.Line)
		found := false
		for _, e := range wants[key] {
			if !e.matched && e.re.MatchString(d.Message) {
				e.matched, found = true, true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d.String())
		}
	}
	for key, es := range wants {
		for _, e := range es {
			if !e.matched {
				t.Errorf("%s: no diagnostic matched %q", key, e.re)
			}
		}
	}

	// Every pass must have at least one true-positive fixture, and the
	// malformed-ignore case must surface as a "morclint" diagnostic.
	seen := map[string]bool{}
	for _, d := range diags {
		seen[d.Pass] = true
	}
	for _, name := range PassNames(AllPasses()) {
		if !seen[name] {
			t.Errorf("pass %s produced no fixture diagnostics", name)
		}
	}
	if !seen["morclint"] {
		t.Error("no malformed-ignore diagnostic surfaced")
	}
}

// TestIgnoreFixturesSuppressEverything checks that in the *_ignore
// fixture packages every diagnostic of the allowlisted pass is either
// suppressed or explicitly annotated (the malformed-ignore case leaves
// one annotated finding behind on purpose).
func TestIgnoreFixturesSuppressEverything(t *testing.T) {
	prog := loadFixtures(t)
	annotated := map[string]bool{} // "file:line" carrying a want comment
	for _, u := range prog.Units {
		for _, f := range u.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if wantRe.MatchString(c.Text) {
						pos := prog.Fset.Position(c.Pos())
						annotated[fmt.Sprintf("%s:%d", pos.Filename, pos.Line)] = true
					}
				}
			}
		}
	}
	for _, d := range prog.Run(AllPasses()) {
		if d.Pass == "morclint" || annotated[fmt.Sprintf("%s:%d", d.File, d.Line)] {
			continue
		}
		dir := filepath.Base(filepath.Dir(d.File))
		if dir == d.Pass+"_ignore" {
			t.Errorf("ignore comment did not suppress: %s", d.String())
		}
	}
}

// TestFixtureNameParsing pins the testdata/src/<pass>[_variant] naming
// convention the Scope methods rely on.
func TestFixtureNameParsing(t *testing.T) {
	cases := []struct{ path, want string }{
		{"morc/internal/analysis/testdata/src/dettaint", "dettaint"},
		{"morc/internal/analysis/testdata/src/dettaint_ignore", "dettaint"},
		{"morc/internal/analysis/testdata/src/dettaint/noncore", "dettaint"},
		{"morc/internal/analysis/testdata/src/invariants_tested", "invariants"},
		{"morc/internal/sim", ""},
	}
	for _, c := range cases {
		u := &Unit{Path: c.path}
		if got := u.Fixture(); got != c.want {
			t.Errorf("Fixture(%s) = %q, want %q", c.path, got, c.want)
		}
	}
}

// TestPassMetadata checks the -list surface: unique, stable names and
// one-line docs.
func TestPassMetadata(t *testing.T) {
	names := map[string]bool{}
	for _, p := range AllPasses() {
		if p.Name() == "" || p.Doc() == "" {
			t.Errorf("pass %T has empty name or doc", p)
		}
		if names[p.Name()] {
			t.Errorf("duplicate pass name %s", p.Name())
		}
		names[p.Name()] = true
	}
	want := []string{"lockhold", "invariants", "boundedgrowth", "spanbalance",
		"dettaint", "lockorder", "hotalloc"}
	if got := PassNames(AllPasses()); !slices.Equal(got, want) {
		t.Errorf("AllPasses = %v, want %v", got, want)
	}
}

// TestDiagnosticJSON pins the JSON shape cmd/morclint -json emits.
func TestDiagnosticJSON(t *testing.T) {
	d := Diagnostic{File: "a/b.go", Line: 3, Col: 7, Pass: "dettaint", Message: "m"}
	b, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"file":"a/b.go","line":3,"col":7,"pass":"dettaint","message":"m"}`
	if string(b) != want {
		t.Errorf("JSON = %s, want %s", b, want)
	}
}

// TestRepoLintsClean is the satellite contract: the tree itself must be
// free of findings. It type-checks the whole module, so it is skipped
// under -short.
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	prog, err := Load("../..", "./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range prog.TypeErrors {
		t.Errorf("type error: %v", terr)
	}
	for _, d := range prog.Run(AllPasses()) {
		t.Errorf("repo is not lint-clean: %s", d.String())
	}
}
