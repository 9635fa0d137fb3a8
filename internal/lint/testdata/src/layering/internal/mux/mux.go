// Package mux stands in for the predicate multiplexer: the detector
// kernel is the allowed downward edge, the serving stack and the
// network are not.
package mux

import (
	"net/http" // want `package internal/mux must not import net/http`

	"example.com/layering/internal/detect"
	"example.com/layering/internal/stream" // want `package internal/mux must not import internal/stream`
)

// Route pretends to fan one delivered event out to its subscribers; the
// detect import is the allowed detector-kernel edge.
func Route() int {
	_ = http.MethodGet
	return stream.Frames() + detect.Step()
}
