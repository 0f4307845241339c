//go:build !race

package sql

const raceEnabled = false
