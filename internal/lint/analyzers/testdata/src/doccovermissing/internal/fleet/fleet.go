// Package fleet has no docs/FLEET.md beside its module root.
package fleet

type Line struct {
	Index int `json:"index"` // want `docs/FLEET.md is missing; every wire-format field in internal/fleet must be documented there`
}
