// Package lib holds one function or method for each case the callers
// check decides.
package lib

import "fmt"

// Shape is an interface the module declares.
type Shape interface{ Area() int }

// Square satisfies Shape and fmt.Stringer; no code calls either method
// on a Square directly.
type Square struct{ N int }

// Area satisfies Shape.
func (s Square) Area() int { return s.N * s.N }

// String satisfies fmt.Stringer.
func (s Square) String() string { return fmt.Sprint("square ", s.N) }

// Used is called from the root module.
func Used() Square { return Square{N: 2} }

// NestedOnly is called only from the nested module.
func NestedOnly() int { return 1 }

// Unused has no caller.
func Unused() int { return 0 }

// Allowed has no caller; the fixture test allowlists it.
func Allowed() int { return 0 }

// Recursive is called only by itself.
func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}
