// Package lib is a fixture for the reachability walk.
package lib

// Live is reached from main.
type Live struct{}

// Run is a method of a live type, so what it calls is live too.
func (Live) Run() int { return viaMethod() }

func viaMethod() int { return 1 }

// DeadExported is reached by nothing.
func DeadExported() {}

func deadUnexported() {}

// TestOnly is reached only from a test.
func TestOnly() int { return 2 }
