package analyzers_test

import (
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"agave/internal/lint"
	"agave/internal/lint/analysis"
	"agave/internal/lint/analysistest"
	"agave/internal/lint/analyzers"
	"agave/internal/lint/load"
)

// Each analyzer runs over its fixture tree under testdata/src; the fixtures
// pair at least one caught violation with at least one allow-suppressed
// site, and the harness is strict in both directions.

func TestWalltime(t *testing.T) {
	analysistest.Run(t, "testdata/src", analyzers.Walltime, nil, "walltime", "walltime/mainexempt")
}

func TestGlobalrand(t *testing.T) {
	analysistest.Run(t, "testdata/src", analyzers.Globalrand, nil, "globalrand")
}

func TestMaporder(t *testing.T) {
	analysistest.Run(t, "testdata/src", analyzers.Maporder, nil, "maporder/report", "maporder")
}

func TestMutexorder(t *testing.T) {
	analysistest.Run(t, "testdata/src", analyzers.Mutexorder, nil, "mutexorder")
}

func TestDocref(t *testing.T) {
	analysistest.Run(t, "testdata/src", analyzers.Docref, nil, "docref")
}

func TestPkgdoc(t *testing.T) {
	analysistest.Run(t, "testdata/src", analyzers.Pkgdoc, nil,
		"pkgdoc/internal/bare", "pkgdoc/internal/twice", "pkgdoc/internal/odd",
		"pkgdoc/internal/good", "pkgdoc/internal/good/nested", "pkgdoc/internal/allowed",
		"pkgdoc/outside")
}

// TestUnusedfunc loads lib together with tool, its one importer outside
// internal/, and outside, a package with its own dead code out of scope.
func TestUnusedfunc(t *testing.T) {
	analysistest.Run(t, "testdata/src", analyzers.Unusedfunc, nil,
		"unusedfunc/internal/lib", "unusedfunc/tool", "unusedfunc/outside")
}

// Each TestDoccover* test runs one registry over both doccover trees. The
// doccover tree pairs a missing heading or an undocumented tag with
// documented, allow-suppressed and (for the fleet) "-", empty-name,
// non-json and test-file entries left unflagged; the doccovermissing tree
// has no docs directory at all, so the registry reports its missing
// document once.
func runDoccover(t *testing.T, registry string) {
	t.Helper()
	analysistest.Run(t, "testdata/src", analyzers.Doccover, nil,
		"doccover/"+registry, "doccovermissing/"+registry)
}

// TestDoccoverScenarioKinds holds the kindNames literal to docs/SCENARIOS.md.
func TestDoccoverScenarioKinds(t *testing.T) { runDoccover(t, "internal/scenario") }

// TestDoccoverLintAnalyzers holds the registered analyzers to docs/LINT.md.
func TestDoccoverLintAnalyzers(t *testing.T) { runDoccover(t, "internal/lint/analyzers") }

// TestDoccoverFleetWireFields holds the internal/fleet json tags to
// docs/FLEET.md.
func TestDoccoverFleetWireFields(t *testing.T) { runDoccover(t, "internal/fleet") }

// TestRepositoryDocsAreClean runs the three documentation analyzers alone
// over this repository, so a docs regression fails here under its own name
// even while cmd/agavelint's whole-suite TestRepositoryIsClean also fails.
func TestRepositoryDocsAreClean(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkgs, err := load.New(load.Config{Fset: fset, ModulePath: "agave", ModuleDir: root}).LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	docs := []*analysis.Analyzer{analyzers.Pkgdoc, analyzers.Docref, analyzers.Doccover}
	findings, err := lint.Run(fset, pkgs, docs, analyzers.Names())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f.String())
	}
}

// TestDocrefMarkdownLinks runs docref's link walk over a synthetic module:
// a relative link at a missing file is reported at its markdown line and
// column; resolving, fragment-carrying, anchor, external and mailto links
// are not, and neither are markdown files under testdata or .claude.
func TestDocrefMarkdownLinks(t *testing.T) {
	root := t.TempDir()
	for name, content := range map[string]string{
		"go.mod":           "module synthetic\n\ngo 1.23\n",
		"p/p.go":           "// Package p anchors the module for the link walk.\npackage p\n",
		"real.md":          "x",
		"docs/sub.md":      "[up](../real.md) [dir](../p)\n",
		"testdata/skip.md": "[broken](nowhere.md)",
		".claude/skip.md":  "[broken](nowhere.md)",
		"doc.md": strings.Join([]string{
			"[ok](real.md)",
			"[ok-anchor](real.md#section)",
			"[self](#here)",
			"[web](https://example.com/x) [mail](mailto:a@example.com)",
			"text, then [broken](missing.md)",
		}, "\n"),
	} {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fset := token.NewFileSet()
	pkgs, err := load.New(load.Config{Fset: fset, ModulePath: "synthetic", ModuleDir: root}).LoadModule()
	if err != nil {
		t.Fatal(err)
	}
	findings, err := lint.Run(fset, pkgs, []*analysis.Analyzer{analyzers.Docref}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range findings {
		rel, _ := filepath.Rel(root, f.Pos.Filename)
		f.Pos.Filename = filepath.ToSlash(rel)
		got = append(got, f.String())
	}
	want := `doc.md:5:12: broken link "missing.md": no such file or directory (docref)`
	if len(got) != 1 || got[0] != want {
		t.Fatalf("findings:\n%s\nwant exactly:\n%s", strings.Join(got, "\n"), want)
	}
}

// TestRegistry pins the registry shape other gates depend on: doccover
// holds docs/LINT.md headings to exactly these names, and //agave:allow
// validates against them.
func TestRegistry(t *testing.T) {
	names := analyzers.Names()
	want := []string{"walltime", "globalrand", "maporder", "mutexorder", "docref", "pkgdoc", "doccover", "unusedfunc"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("registry = %v, want %v", names, want)
	}
	seen := make(map[string]bool)
	for i, a := range analyzers.All() {
		if a.Name != names[i] {
			t.Errorf("All()[%d].Name = %q, Names()[%d] = %q", i, a.Name, i, names[i])
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
	}
}
