//go:build !race

package worker

const raceEnabled = false
