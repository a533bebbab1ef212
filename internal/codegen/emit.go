// Package codegen is the native execution tier: it emits specialized
// Go source for a program's kernel units (flat loops with inlined
// affine subscripts, hoisted guard boxes and precomputed slot offsets)
// into the checked-in generated corpus (internal/codegen/gen), whose
// init registers every function with the engine's kernel registry
// (spmd.RegisterKernel) in any binary that imports it: the native tier
// is built ahead of the run, never during it.  Emitted code is
// bit-compatible with the interpreter by construction: every
// floating-point operation is performed in the same order and
// individually wrapped in float64(...) so the compiler may not contract
// it (no FMA), constants are exact hex literals, and guard/window
// decisions replicate the walker's arithmetic on precomputed bounds.
// The unit grammar is spmd's: every operator, intrinsic and comparison
// met here is one its extractor admitted.
package codegen

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"dhpf/internal/spmd"
)

// KernelFuncName is the emitted function name for a unit fingerprint.
func KernelFuncName(fingerprint string) string {
	return "k_" + fingerprint[:16]
}

// hexFloat renders a float64 as an exact Go literal.
func hexFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "math.NaN()"
	case math.IsInf(v, 1):
		return "math.Inf(1)"
	case math.IsInf(v, -1):
		return "math.Inf(-1)"
	}
	return strconv.FormatFloat(v, 'x', -1, 64)
}

// iterm is one rendered integer affine term.
type iterm struct {
	coef int
	name string
}

// affString renders cst + Σ coef·name, returning the expression and its
// additive piece count (for parenthesization by callers).
func affString(cst int, ts []iterm) (string, int) {
	var b strings.Builder
	n := 0
	for _, t := range ts {
		if t.coef == 0 {
			continue
		}
		switch t.coef {
		case 1:
			if n > 0 {
				b.WriteByte('+')
			}
			b.WriteString(t.name)
		case -1:
			b.WriteByte('-')
			b.WriteString(t.name)
		default:
			if t.coef > 0 && n > 0 {
				b.WriteByte('+')
			}
			fmt.Fprintf(&b, "%d*%s", t.coef, t.name)
		}
		n++
	}
	if cst != 0 || n == 0 {
		if cst >= 0 && n > 0 {
			b.WriteByte('+')
		}
		fmt.Fprintf(&b, "%d", cst)
		n++
	}
	return b.String(), n
}

type emitter struct {
	u *spmd.KernelUnit
	b strings.Builder
}

func (em *emitter) local(level int) string { return fmt.Sprintf("i%d", level) }
func (em *emitter) slot(s int) string      { return fmt.Sprintf("s%d", s) }

func (em *emitter) affTerms(a spmd.KAff) (int, []iterm) {
	ts := make([]iterm, 0, len(a.Terms))
	for _, t := range a.Terms {
		if t.Local {
			ts = append(ts, iterm{coef: t.Coef, name: em.local(t.Level)})
		} else {
			ts = append(ts, iterm{coef: t.Coef, name: em.slot(t.Slot)})
		}
	}
	return a.Const, ts
}

func (em *emitter) affExpr(a spmd.KAff) string {
	cst, ts := em.affTerms(a)
	s, _ := affString(cst, ts)
	return s
}

// subPiece renders one subscript dimension's contribution to a
// row-major index: (sub − lo)·stride, with the −lo folded into the
// affine constant and the multiplication parenthesized when needed.
func (em *emitter) subPiece(s spmd.KSub, lo, stride int) string {
	cst := s.Off.Const - lo
	_, ts := em.affTerms(s.Off)
	if s.HasVar {
		name := em.slot(s.VarSlot)
		if s.VarLocal {
			name = em.local(s.Level)
		}
		ts = append([]iterm{{coef: s.Coef, name: name}}, ts...)
	}
	expr, n := affString(cst, ts)
	if stride == 1 {
		return expr
	}
	if n > 1 {
		expr = "(" + expr + ")"
	}
	return expr + "*" + strconv.Itoa(stride)
}

// index renders the flat row-major element index for an access.
func (em *emitter) index(arr *spmd.KArray, subs []spmd.KSub) string {
	var b strings.Builder
	for k := range subs {
		piece := em.subPiece(subs[k], arr.Lo[k], arr.Stride[k])
		if k > 0 {
			if piece[0] == '-' {
				piece = "(" + piece + ")"
			}
			b.WriteByte('+')
		}
		b.WriteString(piece)
	}
	return b.String()
}

func (em *emitter) expr(e spmd.KExpr) string {
	switch x := e.(type) {
	case spmd.KConst:
		return hexFloat(x.Val)
	case spmd.KLocal:
		return "float64(" + em.local(x.Level) + ")"
	case spmd.KSlotInt:
		return "float64(" + em.slot(x.Slot) + ")"
	case spmd.KScalar:
		return fmt.Sprintf("sref(floats, fset, ints, intSet, %d, %d)", x.FSlot, x.ISlot)
	case spmd.KScalarLocal:
		return fmt.Sprintf("srefl(floats, fset, %d, %s)", x.FSlot, em.local(x.Level))
	case *spmd.KARead:
		arr := &em.u.Arrays[x.Arr]
		return fmt.Sprintf("arrays[%d][%s]", x.Arr, em.index(arr, x.Subs))
	case *spmd.KBin:
		// The float64 conversion around every binary operation forbids
		// fused multiply-add per the Go spec: results stay bit-identical
		// to the interpreter's one-operation-per-node evaluation.
		return fmt.Sprintf("float64(%s %c %s)", em.expr(x.L), x.Op, em.expr(x.R))
	case *spmd.KIntrin:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = em.expr(a)
		}
		return x.GoFunc() + "(" + strings.Join(args, ", ") + ")"
	}
	panic(fmt.Sprintf("codegen: unknown expr %T", e))
}

func condOp(op string) string {
	if op == "/=" {
		return "!="
	}
	return op
}

func (em *emitter) line(ind int, format string, args ...interface{}) {
	for i := 0; i < ind; i++ {
		em.b.WriteByte('\t')
	}
	fmt.Fprintf(&em.b, format, args...)
	em.b.WriteByte('\n')
}

func (em *emitter) stmts(body []spmd.KStmt, ind int) {
	for _, s := range body {
		switch st := s.(type) {
		case *spmd.KLoop:
			em.loop(st, ind)
		case *spmd.KAssign:
			em.assign(st, ind)
		case *spmd.KIf:
			em.ifStmt(st, ind)
		}
	}
}

// loop emits one level: bounds from the inlined affine forms, then the
// invocation window (strip ∩ clamp, packed by the runtime precheck)
// applied exactly like the walker's max/min strip clamping.
func (em *emitter) loop(kl *spmd.KLoop, ind int) {
	v := em.local(kl.Level)
	em.line(ind, "lo%d := %s", kl.Level, em.affExpr(kl.Lo))
	em.line(ind, "hi%d := %s", kl.Level, em.affExpr(kl.Hi))
	if kl.Step > 0 {
		em.line(ind, "if lo%d < bounds[%d] {", kl.Level, kl.WinIdx)
		em.line(ind+1, "lo%d = bounds[%d]", kl.Level, kl.WinIdx)
		em.line(ind, "}")
		em.line(ind, "if hi%d > bounds[%d] {", kl.Level, kl.WinIdx+1)
		em.line(ind+1, "hi%d = bounds[%d]", kl.Level, kl.WinIdx+1)
		em.line(ind, "}")
		em.line(ind, "for %s := lo%d; %s <= hi%d; %s++ {", v, kl.Level, v, kl.Level, v)
	} else {
		em.line(ind, "if lo%d > bounds[%d] {", kl.Level, kl.WinIdx+1)
		em.line(ind+1, "lo%d = bounds[%d]", kl.Level, kl.WinIdx+1)
		em.line(ind, "}")
		em.line(ind, "if hi%d < bounds[%d] {", kl.Level, kl.WinIdx)
		em.line(ind+1, "hi%d = bounds[%d]", kl.Level, kl.WinIdx)
		em.line(ind, "}")
		em.line(ind, "for %s := lo%d; %s >= hi%d; %s-- {", v, kl.Level, v, kl.Level, v)
	}
	em.stmts(kl.Body, ind+1)
	em.line(ind, "}")
}

// assign emits the per-point guard test over the kernel dimensions
// (outer dimensions were checked once by the precheck) and, on pass,
// the interpreter's evaluate → count flops → store sequence.  A
// single-box statement tests its one packed box inline; a multi-box
// statement ORs the test over the boxes the precheck packed.
func (em *emitter) assign(ka *spmd.KAssign, ind int) {
	if ka.MaxBoxes > 1 {
		g, w := fmt.Sprintf("g%d", ka.BoundsIdx), 2*ka.KDims
		em.line(ind, "%s := false", g)
		em.line(ind, "for q := bounds[%d : %d+%d*bounds[%d]]; len(q) >= %d && !%s; q = q[%d:] {",
			ka.BoundsIdx+1, ka.BoundsIdx+1, w, ka.BoundsIdx, w, g, w)
		em.line(ind+1, "%s = %s", g, em.boxTest(ka, "q", 0))
		em.line(ind, "}")
		em.line(ind, "if %s {", g)
	} else {
		em.line(ind, "if %s {", em.boxTest(ka, "bounds", ka.BoundsIdx))
	}
	em.line(ind+1, "v := %s", em.expr(ka.RHS))
	em.line(ind+1, "flops += %s", hexFloat(ka.Flops))
	if ka.Scalar {
		em.line(ind+1, "floats[%d] = v", ka.FSlot)
		em.line(ind+1, "fset[%d] = true", ka.FSlot)
	} else {
		arr := &em.u.Arrays[ka.Arr]
		em.line(ind+1, "arrays[%d][%s] = v", ka.Arr, em.index(arr, ka.Subs))
	}
	em.line(ind, "}")
}

// boxTest renders "the point lies in one box": every kernel dimension's
// local within the box's lo/hi pair, the pairs starting at arr[at].
func (em *emitter) boxTest(ka *spmd.KAssign, arr string, at int) string {
	var conds []string
	for d := 0; d < ka.KDims; d++ {
		v := em.local(ka.Levels[d])
		conds = append(conds,
			fmt.Sprintf("%s >= %s[%d]", v, arr, at+2*d),
			fmt.Sprintf("%s <= %s[%d]", v, arr, at+2*d+1))
	}
	return strings.Join(conds, " && ")
}

func (em *emitter) ifStmt(ki *spmd.KIf, ind int) {
	em.line(ind, "if %s %s %s {", em.expr(ki.L), condOp(ki.Op), em.expr(ki.R))
	em.stmts(ki.Then, ind+1)
	if len(ki.Els) > 0 {
		em.line(ind, "} else {")
		em.stmts(ki.Els, ind+1)
	}
	em.line(ind, "}")
}

// collectSlots gathers every integer slot the emitted code reads as a
// hoisted local (affine terms, subscript variables, KSlotInt reads);
// KScalar reads slots dynamically through sref and needs no hoist.
func collectSlots(u *spmd.KernelUnit) []int {
	seen := map[int]bool{}
	var aff func(a spmd.KAff)
	aff = func(a spmd.KAff) {
		for _, t := range a.Terms {
			if !t.Local {
				seen[t.Slot] = true
			}
		}
	}
	sub := func(s spmd.KSub) {
		aff(s.Off)
		if s.HasVar && !s.VarLocal {
			seen[s.VarSlot] = true
		}
	}
	var expr func(e spmd.KExpr)
	expr = func(e spmd.KExpr) {
		switch x := e.(type) {
		case spmd.KSlotInt:
			seen[x.Slot] = true
		case *spmd.KARead:
			for _, s := range x.Subs {
				sub(s)
			}
		case *spmd.KBin:
			expr(x.L)
			expr(x.R)
		case *spmd.KIntrin:
			for _, a := range x.Args {
				expr(a)
			}
		}
	}
	var walk func(body []spmd.KStmt)
	walk = func(body []spmd.KStmt) {
		for _, s := range body {
			switch st := s.(type) {
			case *spmd.KLoop:
				aff(st.Lo)
				aff(st.Hi)
				walk(st.Body)
			case *spmd.KAssign:
				expr(st.RHS)
				for _, sb := range st.Subs {
					sub(sb)
				}
			case *spmd.KIf:
				expr(st.L)
				expr(st.R)
				walk(st.Then)
				walk(st.Els)
			}
		}
	}
	aff(u.Root.Lo)
	aff(u.Root.Hi)
	walk(u.Root.Body)
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// EmitKernel renders one unit's kernel function.
func EmitKernel(u *spmd.KernelUnit) string {
	em := &emitter{u: u}
	fp := u.Fingerprint()
	em.line(0, "// %s implements kernel unit %s", KernelFuncName(fp), fp)
	em.line(0, "// (proc %q, root stmt %d, depth %d, %d arrays, est. %.0f points).",
		u.Proc, u.RootID, u.RootDepth, len(u.Arrays), u.Points)
	em.line(0, "func %s(ints []int, intSet []bool, floats []float64, fset []bool, arrays [][]float64, bounds []int, flops float64) float64 {",
		KernelFuncName(fp))
	for _, s := range collectSlots(u) {
		em.line(1, "s%d := ints[%d]", s, s)
	}
	em.loop(u.Root, 1)
	em.line(1, "return flops")
	em.line(0, "}")
	return em.b.String()
}

// helperSource is the shared scalar-read helper pair, emitted once into
// the generated package.  sref is ScalarRef's dynamic resolution verbatim;
// srefl is the same for names that are in-scope loop variables, whose
// integer binding is always present inside the loop.
const helperSource = `var _ = math.Sqrt

func sref(floats []float64, fset []bool, ints []int, intSet []bool, fs, is int) float64 {
	if fset[fs] {
		return floats[fs]
	}
	if intSet[is] {
		return float64(ints[is])
	}
	return 0
}

func srefl(floats []float64, fset []bool, fs int, v int) float64 {
	if fset[fs] {
		return floats[fs]
	}
	return float64(v)
}
`

// GeneratedHeader is the machine-written marker every emitted file
// starts with; tools/vetdet accepts its determinism exemption only in
// files carrying it.
const GeneratedHeader = "// Code generated by dhpf internal/codegen. DO NOT EDIT."

// VetdetExempt is the determinism-linter exemption line emitted into
// generated files (see tools/vetdet).
const VetdetExempt = "//vetdet:exempt-file machine-generated kernels (emission is deterministic by construction)"

// dedupeSorted returns the units deduplicated by fingerprint, sorted by
// fingerprint for stable output across corpus reordering.
func dedupeSorted(units []*spmd.KernelUnit) []*spmd.KernelUnit {
	byFP := map[string]*spmd.KernelUnit{}
	fps := make([]string, 0, len(units))
	for _, u := range units {
		fp := u.Fingerprint()
		if _, ok := byFP[fp]; !ok {
			byFP[fp] = u
			fps = append(fps, fp)
		}
	}
	sort.Strings(fps)
	out := make([]*spmd.KernelUnit, len(fps))
	for i, fp := range fps {
		out[i] = byFP[fp]
	}
	return out
}

// EmitCorpus renders the checked-in generated package: every unit's
// kernel plus an init that registers them all, deduplicated by
// fingerprint.
func EmitCorpus(units []*spmd.KernelUnit) string {
	units = dedupeSorted(units)
	var b strings.Builder
	b.WriteString(GeneratedHeader + "\n")
	b.WriteString(VetdetExempt + "\n\n")
	b.WriteString("// Package gen is the no-cgo native-kernel corpus: machine-emitted\n")
	b.WriteString("// kernels for the standard benchmark programs, compiled into any\n")
	b.WriteString("// binary that imports it and registered at init.  Regenerate with\n")
	b.WriteString("// `go generate ./internal/codegen`; CI diffs the output.\n")
	b.WriteString("package gen\n\n")
	b.WriteString("import (\n\t\"math\"\n\n\t\"dhpf/internal/spmd\"\n)\n\n")
	b.WriteString(helperSource)
	b.WriteString("\nfunc init() {\n")
	for _, u := range units {
		fp := u.Fingerprint()
		fmt.Fprintf(&b, "\tspmd.RegisterKernel(%q, %s)\n", fp, KernelFuncName(fp))
	}
	b.WriteString("}\n\n")
	for i, u := range units {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(EmitKernel(u))
	}
	return b.String()
}
