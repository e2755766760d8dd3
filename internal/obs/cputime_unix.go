//go:build unix

package obs

import "syscall"

// cpuSeconds reports the CPU time (user + system) of the process and of
// the children it has waited for, such as cmd/simbench's `go test` runs.
func cpuSeconds() float64 {
	var ns int64
	for _, who := range []int{syscall.RUSAGE_SELF, syscall.RUSAGE_CHILDREN} {
		var ru syscall.Rusage
		if syscall.Getrusage(who, &ru) == nil {
			ns += ru.Utime.Nano() + ru.Stime.Nano()
		}
	}
	return float64(ns) / 1e9
}
