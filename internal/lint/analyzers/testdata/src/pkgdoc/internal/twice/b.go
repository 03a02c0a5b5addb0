// Another preamble. want `package twice has 2 package doc comments \(a.go, b.go\)`
package twice
