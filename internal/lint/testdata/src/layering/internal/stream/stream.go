// Package stream stands in for the serving stack; importing the
// network is its job, so no finding here.
package stream

import "net"

// Frames reports a made-up frame count.
func Frames() int {
	_ = net.FlagUp
	return 1
}
