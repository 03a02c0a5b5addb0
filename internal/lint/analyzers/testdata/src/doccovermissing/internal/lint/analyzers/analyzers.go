// Package analyzers has no docs/LINT.md beside its module root.
package analyzers

import "doccovermissing/internal/lint/analysis"

var Walltime = &analysis.Analyzer{Name: "walltime"} // want `docs/LINT.md is missing; every analyzer in internal/lint/analyzers must be documented there`
