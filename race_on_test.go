//go:build race

package typhoon

// raceEnabled reports that the race detector is on. Its runtime allocates on
// paths that are allocation-free without it, so the *AllocRegression guards
// skip themselves; they run in the plain `go test ./...`.
const raceEnabled = true
