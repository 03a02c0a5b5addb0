// Package analyzers registers analyzers; each Name demands a heading.
package analyzers

import "doccover/internal/lint/analysis"

var Walltime = &analysis.Analyzer{Name: "walltime", Doc: "documented"}

var Fresh = &analysis.Analyzer{
	Name: "fresh", // want `analyzer "fresh" is not a heading in docs/LINT.md \(it is registered; document it\)`
	Doc:  "undocumented",
}

var Pending = &analysis.Analyzer{
	Name: "pending", //agave:allow doccover fixture: documented in a later change
}

// notAnalyzer has a Name field of another type, which demands nothing.
var notAnalyzer = struct{ Name string }{Name: "stranger"}
