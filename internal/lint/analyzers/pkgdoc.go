package analyzers

import (
	"go/ast"
	"path/filepath"
	"strings"

	"agave/internal/lint/analysis"
)

// Pkgdoc holds every package under an internal/ directory, nested ones
// included, to exactly one package doc comment beginning "Package <name> ",
// so `go doc ./internal/<pkg>` explains the layer without reading source.
// More than one doc comment is a finding too: Go picks one arbitrarily,
// which is how a package's real overview ends up shadowed by a file-local
// preamble.
var Pkgdoc = &analysis.Analyzer{
	Name: "pkgdoc",
	Doc:  "every package under internal/ carries exactly one package doc comment, beginning \"Package <name> \"",
	Run:  runPkgdoc,
}

func runPkgdoc(pass *analysis.Pass) (any, error) {
	if !underInternal(pass.Pkg.Path()) {
		return nil, nil
	}
	name := pass.Pkg.Name()
	var docs []*ast.File
	var docFiles []string
	for _, f := range pass.Files {
		if f.Doc != nil {
			docs = append(docs, f)
			docFiles = append(docFiles, filepath.Base(pass.Fset.Position(f.Pos()).Filename))
		}
	}
	switch {
	case len(docs) == 0:
		pass.Reportf(pass.Files[0].Package,
			"package %s has no package doc comment; add one beginning \"Package %s \"", name, name)
	case len(docs) > 1:
		for _, f := range docs {
			pass.Reportf(f.Doc.Pos(),
				"package %s has %d package doc comments (%s); keep one and detach the rest with a blank line",
				name, len(docs), strings.Join(docFiles, ", "))
		}
	case !strings.HasPrefix(docs[0].Doc.Text(), "Package "+name+" "):
		pass.Reportf(docs[0].Doc.Pos(), "package doc comment does not begin \"Package %s \"", name)
	}
	return nil, nil
}

// underInternal reports whether an import path names a package below an
// internal/ directory ("agave/internal/lint/load", but not "agave/internal").
func underInternal(path string) bool {
	elems := strings.Split(path, "/")
	for _, e := range elems[:len(elems)-1] {
		if e == "internal" {
			return true
		}
	}
	return false
}
