//go:build race

package worker

// raceEnabled reports that the race detector is on. It slows the worker loop
// below some of the rates the tests ask of it.
const raceEnabled = true
