package codegen

// Emission-layer tests: the generated corpus must be deterministic
// (CI regenerates and diffs it), gofmt-clean, FMA-proof, and carry the
// header + linter-exemption contract tools/vetdet enforces.

import (
	"go/format"
	"os"
	"strconv"
	"strings"
	"testing"

	"dhpf/internal/spmd"
)

func corpusUnits(t *testing.T) []*spmd.KernelUnit {
	t.Helper()
	var units []*spmd.KernelUnit
	for _, e := range Corpus() {
		prog, err := spmd.CompileSource(e.Source, e.Params, e.Opt)
		if err != nil {
			t.Fatalf("compile %s: %v", e.Name, err)
		}
		units = append(units, prog.KernelUnits()...)
	}
	return units
}

// TestEmitCorpusDeterministic: two independent compiles of the corpus
// emit byte-identical source — the property the CI drift gate rests on.
func TestEmitCorpusDeterministic(t *testing.T) {
	a := EmitCorpus(corpusUnits(t))
	b := EmitCorpus(corpusUnits(t))
	if a != b {
		t.Fatal("EmitCorpus output differs across identical compiles")
	}
}

// TestEmitCorpusFormatted: the emitted package is already gofmt-clean
// after the generator's format.Source pass, and parses as valid Go.
func TestEmitCorpusFormatted(t *testing.T) {
	src := EmitCorpus(corpusUnits(t))
	formatted, err := format.Source([]byte(src))
	if err != nil {
		t.Fatalf("emitted corpus does not parse: %v", err)
	}
	// The emitter's raw output is allowed to differ from gofmt in
	// whitespace only; the generator always writes the formatted form.
	if _, err := format.Source(formatted); err != nil {
		t.Fatalf("formatted corpus unstable: %v", err)
	}
	if !strings.HasPrefix(src, GeneratedHeader) {
		t.Fatal("corpus missing the machine-generated header")
	}
	if !strings.Contains(src, VetdetExempt) {
		t.Fatal("corpus missing the vetdet exemption line")
	}
}

// TestEmitKernelShape checks the structural contract of one kernel:
// float64-wrapped operations (the no-FMA guarantee), hex float
// constants, window clamps against the bounds array, and the flop
// accumulator threading.
func TestEmitKernelShape(t *testing.T) {
	e := Corpus()[0]
	prog, err := spmd.CompileSource(e.Source, e.Params, e.Opt)
	if err != nil {
		t.Fatal(err)
	}
	units := prog.KernelUnits()
	if len(units) == 0 {
		t.Fatal("no units")
	}
	u := units[0]
	src := EmitKernel(u)
	for _, want := range []string{
		"func " + KernelFuncName(u.Fingerprint()) + "(ints []int, intSet []bool, floats []float64, fset []bool, arrays [][]float64, bounds []int, flops float64) float64 {",
		"bounds[0]",
		"flops +=",
		"return flops",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("kernel missing %q:\n%s", want, src)
		}
	}
	// Any emitted decimal float would round; constants must be hex or
	// the math.* specials.
	for _, line := range strings.Split(src, "\n") {
		if strings.Contains(line, "flops += ") && !strings.Contains(line, "0x") {
			t.Errorf("non-hex flop constant: %s", line)
		}
	}
}

// corpusEntry returns the named corpus entry.
func corpusEntry(t *testing.T, name string) CorpusEntry {
	t.Helper()
	for _, e := range Corpus() {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("no corpus entry %q", name)
	return CorpusEntry{}
}

// corpusUnit compiles the named corpus entry and returns its i-th unit.
func corpusUnit(t *testing.T, name string, i int) *spmd.KernelUnit {
	t.Helper()
	e := corpusEntry(t, name)
	prog, err := spmd.CompileSource(e.Source, e.Params, e.Opt)
	if err != nil {
		t.Fatalf("compile %s: %v", name, err)
	}
	return prog.KernelUnits()[i]
}

// TestEmitSingleTermUnchanged: a unit whose statements all have
// single-term CPs emits the text the ABI v1 emitter did — one inline
// box test per statement, the same bounds[] indices.  The golden file
// was written by that emitter with the fingerprint masked, so only the
// ABI tag (through the fingerprint) may move.
func TestEmitSingleTermUnchanged(t *testing.T) {
	u := corpusUnit(t, "features-cond", 0)
	got := EmitKernel(u)
	got = strings.ReplaceAll(got, u.Fingerprint(), "FINGERPRINT")
	got = strings.ReplaceAll(got, u.Fingerprint()[:16], "FINGERPRINT16")
	want, err := os.ReadFile("testdata/single_term.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("single-term unit's emitted text changed:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestEmitUnionGuard pins the per-point test of a multi-term statement:
// an OR over the boxes the precheck packed behind the count, then the
// same evaluate → flops → store body; the capacity the unit reserved
// shows in where the next statement's bounds start.
func TestEmitUnionGuard(t *testing.T) {
	src := EmitKernel(corpusUnit(t, "features-localize", 1))
	const want = `
				g6 := false
				for q := bounds[7 : 7+6*bounds[6]]; len(q) >= 6 && !g6; q = q[6:] {
					g6 = i0 >= q[0] && i0 <= q[1] && i1 >= q[2] && i1 <= q[3] && i2 >= q[4] && i2 <= q[5]
				}
				if g6 {
					v := float64(0x1p+00 / arrays[0][i2*18+i1])
					flops += 0x1p+02
					arrays[1][i2*18+i1] = v
				}
`
	if !strings.Contains(src, want) {
		t.Errorf("multi-term guard test missing or changed, want:%s\ngot:\n%s", want, src)
	}
	if next := 7 + spmd.KernelGuardBoxes*6; !strings.Contains(src, "lo3 = bounds["+strconv.Itoa(next)+"]") {
		t.Errorf("statement after the union guard does not start at bounds[%d]:\n%s", next, src)
	}
}

// TestDedupeSorted: duplicate fingerprints collapse and output order
// is fingerprint order, independent of input order.
func TestDedupeSorted(t *testing.T) {
	e := Corpus()[0]
	prog, err := spmd.CompileSource(e.Source, e.Params, e.Opt)
	if err != nil {
		t.Fatal(err)
	}
	units := prog.KernelUnits()
	if len(units) < 2 {
		t.Skip("need at least two units")
	}
	doubled := append(append([]*spmd.KernelUnit{}, units...), units...)
	out := dedupeSorted(doubled)
	if len(out) != len(dedupeSorted(units)) {
		t.Fatalf("duplicates survived: %d vs %d", len(out), len(dedupeSorted(units)))
	}
	for i := 1; i < len(out); i++ {
		if out[i-1].Fingerprint() >= out[i].Fingerprint() {
			t.Fatal("output not sorted by fingerprint")
		}
	}
}
