//go:build !race

package dhpf

const raceDetector = false
