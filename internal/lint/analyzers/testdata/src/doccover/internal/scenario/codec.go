// Package scenario declares the kinds its codec accepts. Heading depth and
// backticks do not matter, so launch and idle are both documented.
package scenario

var kindNames = []string{
	"launch", "idle",
	"tap",   // want `event kind "tap" is not a heading in docs/SCENARIOS.md \(the codec accepts it; document it\)`
	"swipe", //agave:allow doccover fixture: the kind is documented in a later change
}

// otherNames is not the registry, so its entries demand nothing.
var otherNames = []string{"undocumented"}
