// Command bench is a nested module with its own go.mod that compiles
// against the fixture's internal packages, like the repository's bench/.
package main

import (
	"fmt"

	"example.com/testonly/internal/core"
)

func main() { fmt.Println(core.BenchOnly()) }
