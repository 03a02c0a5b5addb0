// Package lib exercises the unusedfunc analyzer: declarations under an
// internal/ path element that no loaded package references are reported;
// uses from another package, generic instantiations, interface
// satisfaction, init and allow directives keep a declaration quiet.
package lib

import "io"

func init() {}

// Dead is exported, but nothing calls it.
func Dead() {} // want `function Dead is unused`

func dead() {} // want `function dead is unused`

// OnlyTested is called from lib_test.go alone, which the loader never reads.
func OnlyTested() {} // want `function OnlyTested is unused`

// Recur calls only itself.
func Recur(n int) int { // want `function Recur is unused`
	if n == 0 {
		return 0
	}
	return Recur(n - 1)
}

// Helper is called from package tool.
func Helper(w io.Writer) { write(w) }

// write is called from Helper.
func write(w io.Writer) { w.Write(nil) }

// T has one used and one dead method.
type T struct{}

// Used is called from package tool.
func (T) Used() {}

// Unused is called from nowhere.
func (*T) Unused() {} // want `method T.Unused is unused`

// Stack is generic; tool only ever touches its int instantiation.
type Stack[E any] struct{ items []E }

// Push is reached only through Stack[int].
func (s *Stack[E]) Push(v E) { s.items = append(s.items, v) }

// Pop is reached by nothing.
func (s *Stack[E]) Pop() E { // want `method Stack.Pop is unused`
	v := s.items[len(s.items)-1]
	s.items = s.items[:len(s.items)-1]
	return v
}

// Map is a generic function reached only through an instantiation.
func Map[E, F any](xs []E, f func(E) F) []F {
	out := make([]F, 0, len(xs))
	for _, x := range xs {
		out = append(out, f(x))
	}
	return out
}

// Buf satisfies io.Writer, a standard-library interface lib imports, so
// its Write is reachable through interface dispatch.
type Buf struct{ n int }

func (b *Buf) Write(p []byte) (int, error) { b.n += len(p); return len(p), nil }

// Shape is a fixture-local interface.
type Shape interface{ Area() int }

// Square satisfies Shape, so its Area is reachable through it.
type Square struct{ side int }

func (s Square) Area() int { return s.side * s.side }

// Volume is on no interface.
func (s Square) Volume() int { return s.side * s.side * s.side } // want `method Square.Volume is unused`

// Kept is unused but deliberately retained.
//
//agave:allow unusedfunc retained for the fixture's allow case
func Kept() {}
