// Command agavelint runs the repository's analyzer suite
// (internal/lint/analyzers) over every package of a module: determinism and
// attribution invariants in the Go source, the rule that every internal/
// function has a non-test caller, and the documentation invariants that
// hold package comments, markdown links and the reference documents to the
// code.
//
// Usage: agavelint [moduledir] (default "."). The tool finds the nearest
// go.mod at or above moduledir, type-checks every non-test package against
// $GOROOT/src, and prints surviving findings; it needs no build cache and
// no network. All packages are analyzed in one run, so whole-program checks
// (mutexorder's lock-order graph, docref's markdown walk, unusedfunc's
// reference set) see the module whole.
//
// Exit status: 0 clean, 1 findings, 2 usage or load failure.
// docs/LINT.md documents each analyzer and the //agave:allow directive.
package main

import (
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"

	"agave/internal/lint"
	"agave/internal/lint/analyzers"
	"agave/internal/lint/load"
)

func main() {
	os.Exit(Main(os.Args[1:], os.Stdout, os.Stderr))
}

// Main is the testable entry point.
func Main(args []string, stdout, stderr io.Writer) int {
	dir := "."
	switch {
	case len(args) == 1 && !strings.HasPrefix(args[0], "-"):
		dir = args[0]
	case len(args) > 0:
		fmt.Fprintln(stderr, "usage: agavelint [moduledir]")
		return 2
	}
	return run(dir, stdout, stderr)
}

// run loads every package of the module rooted at or above dir and
// prints findings with paths relative to the working directory.
func run(dir string, stdout, stderr io.Writer) int {
	modDir, modPath, err := findModule(dir)
	if err != nil {
		fmt.Fprintln(stderr, "agavelint:", err)
		return 2
	}
	fset := token.NewFileSet()
	loader := load.New(load.Config{Fset: fset, ModulePath: modPath, ModuleDir: modDir})
	pkgs, err := loader.LoadModule()
	if err != nil {
		fmt.Fprintln(stderr, "agavelint:", err)
		return 2
	}
	findings, err := lint.Run(fset, pkgs, analyzers.All(), analyzers.Names())
	if err != nil {
		fmt.Fprintln(stderr, "agavelint:", err)
		return 2
	}
	cwd, _ := os.Getwd()
	for _, f := range findings {
		if cwd != "" {
			if rel, err := filepath.Rel(cwd, f.Pos.Filename); err == nil && !strings.HasPrefix(rel, "..") {
				f.Pos.Filename = rel
			}
		}
		fmt.Fprintln(stdout, f.String())
	}
	if len(findings) > 0 {
		return 1
	}
	return 0
}

// findModule walks up from dir to the nearest go.mod and returns the module
// directory and module path.
func findModule(dir string) (modDir, modPath string, err error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", "", err
	}
	for d := abs; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod has no module directive", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("no go.mod at or above %s", abs)
		}
		d = parent
	}
}
