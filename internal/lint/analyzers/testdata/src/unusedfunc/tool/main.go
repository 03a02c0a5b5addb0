// Command tool is the cross-package user of lib. It sits outside internal/,
// so its own declarations are never reported.
package main

import (
	"os"
	"strconv"

	"unusedfunc/internal/lib"
)

func main() {
	lib.Helper(os.Stdout)
	lib.T{}.Used()
	var s lib.Stack[int]
	s.Push(1)
	_ = lib.Map([]int{1}, strconv.Itoa)
	unreferenced()
}

// unreferenced is used; orphan below is not, but tool is outside internal/.
func unreferenced() {}

func orphan() {}
