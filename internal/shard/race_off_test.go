//go:build !race

package shard_test

const raceEnabled = false
