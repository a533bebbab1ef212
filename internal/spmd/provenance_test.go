package spmd

import (
	"math"

	"dhpf/internal/ir"
)

// provMode is the provenance evaluator (ROADMAP item 25).  A value is an
// integer below 2⁴⁰: + and − are exact arithmetic mod 2⁴⁰, so a sum
// reduction still commutes across ranks; min and max stay orders; every
// other operation, intrinsic and constant is a hash of itself and its
// operands.  Indices, scalars and elements read as in float mode, so an
// element's final value fingerprints the dataflow that produced it: a
// stale read anywhere upstream changes it, whatever the inputs were.
// The interpreter only: the kernel tiers compute floats.
type provMode struct{}

// Provenance switches eval to provenance values until restore is called.
func Provenance() (restore func()) {
	provenance = provMode{}
	return func() { provenance = nil }
}

func (provMode) sum(v float64) float64 { return float64(int64(v) & (1<<40 - 1)) }

func (p provMode) eval(rx *rankExec, e ir.Expr) (float64, bool) {
	switch x := e.(type) {
	case ir.FloatConst:
		return provHash("const", x.Val), true
	case *ir.Bin:
		l, r := rx.eval(x.L), rx.eval(x.R)
		switch x.Op {
		case '+':
			return p.sum(l + r), true
		case '-':
			return p.sum(l - r), true
		}
		return provHash(string(x.Op), l, r), true
	case *ir.Intrinsic:
		args := make([]float64, len(x.Args))
		for i, a := range x.Args {
			args[i] = rx.eval(a)
		}
		switch x.Name {
		case "min":
			return math.Min(args[0], args[1]), true
		case "max":
			return math.Max(args[0], args[1]), true
		}
		return provHash(x.Name, args...), true
	}
	return 0, false
}

// provHash is a value below 2⁴⁰ that fingerprints op and its operands,
// mixed a word at a time by the splitmix64 finalizer.
func provHash(op string, operands ...float64) float64 {
	var h uint64
	mix := func(w uint64) {
		z := h ^ w + 0x9e3779b97f4a7c15
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		h = z ^ z>>31
	}
	for _, c := range []byte(op) {
		mix(uint64(c))
	}
	for _, v := range operands {
		mix(math.Float64bits(v))
	}
	return float64(h & (1<<40 - 1))
}
