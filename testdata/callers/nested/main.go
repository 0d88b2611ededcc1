// Command nested is the only caller of lib.NestedOnly, as a nested
// benchmark module is of some root-module functions.
package main

import (
	"fmt"

	"example.com/fixture/internal/lib"
)

func main() { fmt.Println(lib.NestedOnly()) }
