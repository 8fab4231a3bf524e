//go:build !race

package typhoon

const raceEnabled = false
