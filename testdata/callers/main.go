// Command fixture is the root module's production caller of lib.
package main

import (
	"fmt"

	"example.com/fixture/internal/lib"
)

func main() {
	var s lib.Shape = lib.Used()
	fmt.Println(s.Area(), s)
}
