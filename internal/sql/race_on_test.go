//go:build race

package sql

// raceEnabled reports whether the race detector instruments this build;
// the allocation budgets skip themselves under it.
const raceEnabled = true
