//go:build race

package crackdb

// raceEnabled reports whether the race detector instruments this build;
// the budget gates skip themselves under it (instrumented timing and
// allocation counts are not the program's).
const raceEnabled = true
