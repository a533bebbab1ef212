//go:build race

package codegen

// raceEnabled mirrors the build's -race flag: a race-instrumented host
// cannot load a non-instrumented plugin, so the native tier falls back
// to the evaluator under the race detector (the parity tests
// still run — against pre-registered gen kernels compiled into the
// same instrumented binary).
const raceEnabled = true
