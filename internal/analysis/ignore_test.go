package analysis

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// parseIgnores runs the allowlist parser over one synthetic file and
// returns the resulting index.
func parseIgnores(t *testing.T, src string) *ignoreIndex {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	idx := &ignoreIndex{entries: map[string]map[int][]ignoreEntry{}}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			idx.add(fset, c)
		}
	}
	return idx
}

func TestIgnoreParsing(t *testing.T) {
	pos := func(line int) token.Position { return token.Position{Filename: "x.go", Line: line} }

	t.Run("comma list with spaces", func(t *testing.T) {
		idx := parseIgnores(t, "package p\n\nvar x = 1 //morclint:ignore dettaint, lockhold the list may be spaced\n")
		for _, pass := range []string{"dettaint", "lockhold"} {
			if !idx.suppressed(pass, pos(3)) {
				t.Errorf("pass %s not suppressed by spaced comma list", pass)
			}
		}
		if idx.suppressed("spanbalance", pos(3)) {
			t.Error("unlisted pass suppressed")
		}
		if len(idx.malformed) != 0 {
			t.Errorf("unexpected malformed diagnostics: %v", idx.malformed)
		}
	})

	t.Run("all combined with a named pass", func(t *testing.T) {
		idx := parseIgnores(t, "package p\n\nvar x = 1 //morclint:ignore all,dettaint the wildcard swallows the name\n")
		for _, pass := range []string{"dettaint", "hotalloc", "lockorder"} {
			if !idx.suppressed(pass, pos(3)) {
				t.Errorf("pass %s not suppressed by all", pass)
			}
		}
	})

	t.Run("line above covers the next line only", func(t *testing.T) {
		idx := parseIgnores(t, "package p\n\n//morclint:ignore dettaint reason\nvar x = 1\nvar y = 2\n")
		if !idx.suppressed("dettaint", pos(3)) || !idx.suppressed("dettaint", pos(4)) {
			t.Error("comment line or next line not covered")
		}
		if idx.suppressed("dettaint", pos(5)) {
			t.Error("coverage leaked past the next line: multi-line statements need the comment on the flagged line")
		}
	})

	t.Run("spaced list without a reason is malformed", func(t *testing.T) {
		idx := parseIgnores(t, "package p\n\nvar x = 1 //morclint:ignore dettaint, lockhold\n")
		if len(idx.malformed) != 1 {
			t.Fatalf("want 1 malformed diagnostic, got %v", idx.malformed)
		}
		if idx.suppressed("dettaint", pos(3)) || idx.suppressed("lockhold", pos(3)) {
			t.Error("a reasonless ignore must suppress nothing")
		}
	})

	t.Run("bare directive is malformed", func(t *testing.T) {
		idx := parseIgnores(t, "package p\n\nvar x = 1 //morclint:ignore\n")
		if len(idx.malformed) != 1 {
			t.Fatalf("want 1 malformed diagnostic, got %v", idx.malformed)
		}
	})

	t.Run("unknown pass name is malformed", func(t *testing.T) {
		// Removed passes: detrand was folded into dettaint, and ctxleak
		// gave way to go vet's lostcancel check.
		for _, removed := range []string{"detrand", "ctxleak"} {
			t.Run(removed, func(t *testing.T) {
				idx := parseIgnores(t, "package p\n\nvar x = 1 //morclint:ignore "+removed+",lockhold the pass was removed\n")
				if len(idx.malformed) != 1 || !strings.Contains(idx.malformed[0].Message, `unknown pass "`+removed+`"`) {
					t.Fatalf("want 1 malformed diagnostic naming %s, got %v", removed, idx.malformed)
				}
				if idx.suppressed("lockhold", pos(3)) || idx.suppressed("dettaint", pos(3)) {
					t.Error("an ignore naming an unknown pass must suppress nothing")
				}
			})
		}
	})
}
