// Package outside is not under an internal/ path element, so its dead
// declarations are out of scope.
package outside

// Orphan is referenced by nothing.
func Orphan() {}
