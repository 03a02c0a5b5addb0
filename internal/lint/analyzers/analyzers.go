// Package analyzers holds the agavelint analyzer registry: the static
// encodings of this repository's determinism, attribution, reference and
// documentation invariants. Every analyzer here has a heading in docs/LINT.md (the
// doccover analyzer enforces that), analysistest fixtures under
// testdata/src, and honors the //agave:allow directive applied by the
// internal/lint driver.
package analyzers

import "agave/internal/lint/analysis"

// All returns the full registry in the order analyzers run and document.
func All() []*analysis.Analyzer {
	return []*analysis.Analyzer{Walltime, Globalrand, Maporder, Mutexorder, Docref, Pkgdoc, Doccover, Unusedfunc}
}

// Names returns the registered analyzer names, in registry order. This is
// the set //agave:allow directives may cite and the set of headings
// docs/LINT.md must carry.
func Names() []string {
	all := All()
	names := make([]string, len(all))
	for i, a := range all {
		names[i] = a.Name
	}
	return names
}
