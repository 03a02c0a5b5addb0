// Package analysistest runs an analyzer over fixture packages and checks its
// diagnostics against `// want` expectations embedded in the fixtures — the
// x/tools testing idiom, rebuilt on the stdlib-only loader. A fixture line
// carrying a finding says what it expects in a backquoted regexp:
//
//	t := time.Now() // want `time.Now reads the wall clock`
//
// Matching is strict both ways per file:line — an unmatched diagnostic and
// an unsatisfied expectation are both test failures — so a fixture line with
// an //agave:allow directive and no want comment asserts suppression.
package analysistest

import (
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"agave/internal/lint"
	"agave/internal/lint/analysis"
	"agave/internal/lint/load"
)

// wantPattern extracts the backquoted regexps of one want comment.
var wantPattern = regexp.MustCompile("`([^`]+)`")

// wantMarker locates the expectation inside a comment: the word "want"
// followed by a backquoted regexp. It may sit mid-comment so that a comment
// which is itself the diagnostic site (docref flags comment lines) can carry
// its expectation inline.
var wantMarker = regexp.MustCompile("\\bwant\\s+`")

// Run loads each fixture package under srcRoot (GOPATH-src layout:
// srcRoot/<path>/*.go), applies the analyzer through the real driver —
// //agave:allow handling included — and enforces the want expectations.
// known lists extra analyzer names directives in the fixtures may cite;
// the analyzer under test is always known.
//
//agave:allow unusedfunc the package exists for analyzer tests; only _test.go files call it
func Run(t *testing.T, srcRoot string, a *analysis.Analyzer, known []string, pkgPaths ...string) {
	t.Helper()
	fset := token.NewFileSet()
	loader := load.New(load.Config{Fset: fset, FixtureRoot: srcRoot})
	var pkgs []*load.Package
	for _, p := range pkgPaths {
		pkg, err := loader.LoadDir(filepath.Join(srcRoot, filepath.FromSlash(p)))
		if err != nil {
			t.Fatalf("loading fixture %s: %v", p, err)
		}
		pkgs = append(pkgs, pkg)
	}

	findings, err := lint.Run(fset, pkgs, []*analysis.Analyzer{a}, append([]string{a.Name}, known...))
	if err != nil {
		t.Fatalf("running %s: %v", a.Name, err)
	}

	type expectation struct {
		re       *regexp.Regexp
		raw      string
		consumed bool
	}
	wants := make(map[string][]*expectation) // "file:line" -> expectations
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, cg := range file.Comments {
				for _, c := range cg.List {
					loc := wantMarker.FindStringIndex(c.Text)
					if loc == nil {
						continue
					}
					pos := fset.Position(c.Pos())
					key := keyOf(pos.Filename, pos.Line)
					for _, m := range wantPattern.FindAllStringSubmatch(c.Text[loc[0]:], -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s: bad want regexp %q: %v", key, m[1], err)
						}
						wants[key] = append(wants[key], &expectation{re: re, raw: m[1]})
					}
				}
			}
		}
	}

	for _, f := range findings {
		key := keyOf(f.Pos.Filename, f.Pos.Line)
		matched := false
		for _, w := range wants[key] {
			if !w.consumed && w.re.MatchString(f.Message) {
				w.consumed = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("%s:%d: unexpected diagnostic: %s (%s)", f.Pos.Filename, f.Pos.Line, f.Message, f.Analyzer)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.consumed {
				t.Errorf("%s: expected diagnostic matching `%s`, got none", key, w.raw)
			}
		}
	}
}

func keyOf(file string, line int) string {
	return file + ":" + strconv.Itoa(line)
}
