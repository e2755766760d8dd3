package lib

import "testing"

func TestTestOnly(t *testing.T) {
	if TestOnly() != 2 {
		t.Fatal("TestOnly() != 2")
	}
	if new(Live).TestOnly() != 4 {
		t.Fatal("Live.TestOnly() != 4")
	}
}
