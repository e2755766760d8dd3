// Package lib is a fixture for the reachability check.
package lib

// Live is reached from main.
type Live struct{}

// Run is a method of a live type, so what it calls is live too.
func (Live) Run() int { return viaMethod() }

// String is called only through fmt's Stringer interface.
func (Live) String() string { return "live" }

// Dead is a method of a live type that nothing calls.
func (Live) Dead() int { return 3 }

// TestOnly is a method that only a test calls.
func (*Live) TestOnly() int { return 4 }

func viaMethod() int { return 1 }

// DeadExported is reached by nothing.
func DeadExported() {}

func deadUnexported() {}

// TestOnly is reached only from a test.
func TestOnly() int { return 2 }
