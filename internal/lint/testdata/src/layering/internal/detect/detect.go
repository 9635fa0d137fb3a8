// Package detect stands in for the detector kernel: theory imports are
// allowed, the serving stack and the network are not.
package detect

import (
	"net" // want `package internal/detect must not import net`

	"example.com/layering/internal/lattice"
	"example.com/layering/internal/stream" // want `package internal/detect must not import internal/stream`
)

// Step pretends to advance an incremental detector; the lattice import
// is the allowed theory edge.
func Step() int {
	_ = net.FlagUp
	return stream.Frames() + lattice.Explore(nil)
}
