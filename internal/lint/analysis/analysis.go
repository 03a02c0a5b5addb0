// Package analysis defines the plug-in interface agavelint analyzers are
// written against. It deliberately mirrors the shape of
// golang.org/x/tools/go/analysis — an Analyzer owns a Run function that
// receives a Pass and reports Diagnostics — so the analyzers read like any
// vet checker and could be rebased onto the upstream framework by swapping
// an import. The one extension is Finish: agavelint's determinism invariants
// are whole-program properties (a lock-order cycle can span packages), so an
// analyzer may also register a hook that runs once after every package's Run
// and sees all per-package results together.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer is one named, self-contained check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, in //agave:allow
	// directives, and as a docs/LINT.md heading. Lower-case, no spaces.
	Name string

	// Doc is the one-sentence invariant statement; the analyzer's
	// docs/LINT.md heading carries the full reference.
	Doc string

	// Run applies the analyzer to one type-checked package. The returned
	// value is kept and handed to Finish; analyzers without cross-package
	// state return nil.
	Run func(*Pass) (any, error)

	// Finish, if non-nil, runs once after Run has seen every package in
	// the load set. Whole-program diagnostics (lock-order cycles, broken
	// markdown links, unreferenced functions) are reported here.
	Finish func(*Summary) error
}

// A Pass connects an Analyzer to one package: its syntax, its types, and a
// sink for diagnostics. Exactly the fields of an x/tools pass that the
// agavelint analyzers need.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report delivers one diagnostic to the driver, which applies
	// //agave:allow suppression and ordering.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A PackageResult pairs one package with the value its Run returned.
type PackageResult struct {
	Pkg   *types.Package
	Value any
}

// A Summary is the whole-program view an Analyzer's Finish hook receives:
// every per-package Run result, in load order.
type Summary struct {
	Fset    *token.FileSet
	Results []PackageResult
	Report  func(Diagnostic)
}

// Reportf reports a formatted whole-program diagnostic at pos.
func (s *Summary) Reportf(pos token.Pos, format string, args ...any) {
	s.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}
