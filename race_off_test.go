//go:build !race

package crackdb

const raceEnabled = false
