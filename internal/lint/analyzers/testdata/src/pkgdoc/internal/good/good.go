// Package good is documented, so pkgdoc says nothing about it.
package good

// A file-local preamble detached by a blank line is not a doc comment.

func helper() {}
