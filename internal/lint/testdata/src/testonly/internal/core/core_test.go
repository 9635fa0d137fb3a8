package core

import "testing"

func TestOracle(t *testing.T) {
	if OnlyTests() != Oracle() || !NewDetector().(*Detector).Found() {
		t.Fatal("mismatch")
	}
}
