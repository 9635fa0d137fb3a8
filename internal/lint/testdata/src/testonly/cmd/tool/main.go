// Command tool is the fixture's production user of package core.
package main

import (
	"encoding/json"
	"fmt"

	"example.com/testonly/internal/core"
)

func main() {
	lvl := core.Level(2)
	out, _ := json.Marshal(lvl)
	fmt.Println(lvl, string(out))
	fmt.Println(core.NewDetector().(interface{ Witness() []int }).Witness())
}
