//go:build race

package shard_test

// raceEnabled reports whether the race detector instruments this build;
// the allocation budget skips itself under it.
const raceEnabled = true
