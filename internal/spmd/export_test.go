package spmd

// RequireSameRun is the bit-for-bit run comparison of engine_test.go, for
// the external tests of this package.
var RequireSameRun = requireSameRun

// BailAlways breaks the array geometry of every kernel unit of prog, so
// each precheck bails and the walker interprets the invocation — the
// wholesale form of the decline path — until the returned function puts
// the geometry back.  (A unit touching no array cannot be made to bail;
// it keeps running.)
func BailAlways(prog *Program) (restore func()) {
	bump := func(d int) {
		for _, u := range prog.KernelUnits() {
			for i := range u.Arrays {
				u.Arrays[i].Hi[0] += d
			}
		}
	}
	bump(1)
	return func() { bump(-1) }
}
