//go:build race

package core

// raceEnabled reports whether the race detector instruments this build;
// the build budget skips itself under it.
const raceEnabled = true
