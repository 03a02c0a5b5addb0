package analyzers

import (
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"

	"agave/internal/lint/analysis"
)

// Docref holds the module's prose to the files it names. Every markdown file
// a Go comment mentions ("see docs/ARCHITECTURE.md") must exist, resolved
// against the module root (the nearest ancestor directory holding a go.mod)
// or the referencing file's own directory: godoc prose is where renamed
// design documents dangle the longest. Every relative link in the module's
// markdown files must resolve to an existing file or directory, so the
// architecture map and README never point at paths a refactor moved. The
// comment check runs per package; the link check runs once, in Finish, over
// each module root the packages live in.
var Docref = &analysis.Analyzer{
	Name: "docref",
	Doc: "every markdown file referenced from a Go comment must exist at the module root or beside the file, " +
		"and every relative markdown link in the module must resolve",
	Run:    runDocref,
	Finish: finishDocref,
}

// docrefPattern matches a bare markdown-file reference inside prose, e.g.
// "docs/ARCHITECTURE.md" or "ROADMAP.md".
var docrefPattern = regexp.MustCompile(`\b[A-Za-z0-9][A-Za-z0-9_./-]*\.md\b`)

// runDocref checks the package's comments and returns its module root, the
// tree Finish walks for markdown links.
func runDocref(pass *analysis.Pass) (any, error) {
	dir := filepath.Dir(pass.Fset.Position(pass.Files[0].Pos()).Filename)
	root := moduleRoot(dir)
	for _, file := range pass.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if strings.Contains(c.Text, "://") {
					continue // a URL's path may end in .md without being ours
				}
				for _, ref := range docrefPattern.FindAllString(c.Text, -1) {
					if fileExists(filepath.Join(dir, ref)) ||
						(root != "" && fileExists(filepath.Join(root, ref))) {
						continue
					}
					pass.Reportf(c.Pos(),
						"comment references %q, which exists neither at the module root nor beside the file", ref)
				}
			}
		}
	}
	return root, nil
}

// mdLink matches inline markdown links and images; the destination is
// group 1. Reference-style links are rare enough here that inline coverage
// is the useful gate.
var mdLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)[^)]*\)`)

// finishDocref walks every module root the analyzed packages returned, in
// load order, and checks each markdown file once.
func finishDocref(sum *analysis.Summary) error {
	seenRoot := make(map[string]bool)
	seenFile := make(map[string]bool)
	for _, r := range sum.Results {
		root, _ := r.Value.(string)
		if root == "" || seenRoot[root] {
			continue
		}
		seenRoot[root] = true
		if err := checkMarkdownLinks(sum, root, seenFile); err != nil {
			return err
		}
	}
	return nil
}

// checkMarkdownLinks resolves every relative link destination in the
// markdown files under root, skipping VCS metadata, fixture trees and
// tool-local state. External, mailto: and intra-document links are not
// checked, and a URL fragment is dropped before resolving. A broken link is
// reported at its markdown line, through a file added to the FileSet.
func checkMarkdownLinks(sum *analysis.Summary, root string, seen map[string]bool) error {
	return filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", "testdata", ".claude":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(d.Name(), ".md") || seen[path] {
			return nil
		}
		seen[path] = true
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var tf *token.File
		offset := 0
		for _, line := range strings.SplitAfter(string(data), "\n") {
			for _, m := range mdLink.FindAllStringSubmatchIndex(line, -1) {
				dest := line[m[2]:m[3]]
				if strings.Contains(dest, "://") || strings.HasPrefix(dest, "mailto:") ||
					strings.HasPrefix(dest, "#") {
					continue
				}
				target, _, _ := strings.Cut(dest, "#")
				if fileExists(filepath.Join(filepath.Dir(path), target)) {
					continue
				}
				if tf == nil {
					tf = sum.Fset.AddFile(path, -1, len(data))
					tf.SetLinesForContent(data)
				}
				sum.Reportf(tf.Pos(offset+m[0]), "broken link %q: no such file or directory", dest)
			}
			offset += len(line)
		}
		return nil
	})
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// moduleRoot walks up from dir to the nearest directory holding a go.mod,
// or "" when none exists (a bare fixture tree).
func moduleRoot(dir string) string {
	for d := dir; ; {
		if fileExists(filepath.Join(d, "go.mod")) {
			return d
		}
		parent := filepath.Dir(d)
		if parent == d {
			return ""
		}
		d = parent
	}
}
