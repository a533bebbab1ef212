//go:build !race

package spmd_test

const raceDetector = false
