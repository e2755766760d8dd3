//go:build !race

package plan_test

// raceEnabled reports whether the race detector instruments this build;
// allocation budgets are not checked under it (the race runtime
// allocates on instrumented paths).
const raceEnabled = false
