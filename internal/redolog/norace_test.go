//go:build !race

package redolog

const raceEnabled = false
