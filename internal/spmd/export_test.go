package spmd

// RequireSameRun is the bit-for-bit run comparison of engine_test.go, for
// the external tests of this package.
var RequireSameRun = requireSameRun

// HoistRow is one program of hoistRows.
type HoistRow struct {
	Name, Src      string
	Hoisted, Bails int
}

// HoistRows is hoistRows, for the external tests of this package.
var HoistRows = hoistRows

// relower lowers each kernel unit of prog again and returns the builders.
func relower(prog *Program) []*kevalBuilder {
	var bs []*kevalBuilder
	for _, u := range prog.KernelUnits() {
		b := &kevalBuilder{u: u}
		b.loop(u.Root)
		bs = append(bs, b)
	}
	return bs
}

// Hoisted counts the subtrees prog's evaluators hoist to loop entries.
func Hoisted(prog *Program) (n int) {
	for _, b := range relower(prog) {
		n += b.hoisted
	}
	return n
}

// Opcodes returns the opcodes prog's evaluators contain, a bit each.
func Opcodes(prog *Program) (codes uint64) {
	for _, b := range relower(prog) {
		codes |= b.codes
	}
	return codes
}

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

// EmitFills returns, by statement id, how many times the derivation pass
// of one rank's node program built the statement's iteration set.
func EmitFills(prog *Program, rank int) []int {
	rows := prog.emitRows(rank)
	fills := make([]int, len(rows))
	for id, row := range rows {
		fills[id] = row.fills
	}
	return fills
}
