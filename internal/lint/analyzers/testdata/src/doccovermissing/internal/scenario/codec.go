// Package scenario has no docs/SCENARIOS.md beside its module root.
package scenario

var kindNames = []string{
	"launch", // want `docs/SCENARIOS.md is missing; every event kind in internal/scenario must be documented there`
	"idle",
}
