// Package fleet declares wire structs; every json tag name demands a
// backticked token in the fleet reference.
package fleet

type Line struct {
	Index       int    `json:"index"`
	Fingerprint uint64 `json:"fingerprint,omitempty"`
	Digest      string `json:"digest"` // want `wire-format field "digest" is not a backticked token in docs/FLEET.md`
	Skipped     string `json:"-"`
	Unnamed     string `json:",omitempty"`
	Other       string `xml:"other"`
	NoTag       string
	Draft       string `json:"draft"` //agave:allow doccover fixture: documented in a later change
}
