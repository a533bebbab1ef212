//go:build race

package dhpf

// raceDetector reports whether the test binary was built with -race.
const raceDetector = true
