//go:build race

package server

// raceEnabled reports whether the race detector instruments this build;
// the allocation budgets skip themselves under it.
const raceEnabled = true
