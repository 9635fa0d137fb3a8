// Package core is the testonly fixture: identifiers only tests reach,
// next to every shape of non-test use the rule must accept.
package core

import "strconv"

// OnlyTests is called from core_test.go alone.
func OnlyTests() int { return 1 } // want `core\.OnlyTests has no non-test reference`

// Unused has no reference at all.
const Unused = 2 // want `core\.Unused has no non-test reference`

// recurse refers only to itself.
func recurse(n int) int { // want `core\.recurse has no non-test reference`
	if n == 0 {
		return 0
	}
	return recurse(n - 1)
}

// orphan is named only by its own method.
type orphan struct{} // want `core\.orphan has no non-test reference`

func (o orphan) clone() orphan { return o } // want `core\.orphan\.clone has no non-test reference`

// Level is used by the command; its methods are reached only through
// interfaces the standard library declares.
type Level int

func (l Level) String() string { return "level-" + strconv.Itoa(int(l)) }

func (l Level) MarshalText() ([]byte, error) { return []byte(strconv.Itoa(int(l))), nil }

// Detector is reached only through an anonymous-interface type
// assertion, like a witness accessor behind a registry interface.
type Detector struct{ wit []int }

// NewDetector builds one.
func NewDetector() any { return &Detector{wit: []int{1}} }

// Witness is never named by a selector that resolves to it.
func (d *Detector) Witness() []int { return d.wit }

// Found is a plain method only tests call.
func (d *Detector) Found() bool { return d.wit != nil } // want `core\.Detector\.Found has no non-test reference`

// BenchOnly is used by the nested benchmark module alone.
func BenchOnly() int { return 3 }

// Oracle is a reference implementation the tests compare against.
//
//lint:ignore testonly exhaustive oracle for TestOracle
func Oracle() int { return 1 }
