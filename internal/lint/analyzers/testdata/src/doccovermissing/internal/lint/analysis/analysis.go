// Package analysis stands in for the analyzer framework: doccover
// recognizes its Analyzer type by the package path's suffix.
package analysis

// An Analyzer is one named check.
type Analyzer struct {
	Name string
	Doc  string
}
