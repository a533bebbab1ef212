package spmd

import (
	"errors"
	"math"
	"strings"
	"testing"

	"dhpf/internal/passes"
)

func TestAgree(t *testing.T) {
	nan, inf, neg0 := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	for _, c := range []struct {
		name      string
		got, want []float64
		tol       float64
		err       string // "" agrees
	}{
		{"equal bits", []float64{1, nan, inf, neg0}, []float64{1, nan, inf, neg0}, 0, ""},
		{"equal bits under a tolerance", []float64{nan, inf}, []float64{nan, inf}, 1e-10, ""},
		{"-0 against +0 bit for bit", []float64{neg0}, []float64{0}, 0, "x[0]: got -0 (0x8000000000000000), want 0 (0x0)"},
		{"-0 against +0 under a tolerance", []float64{neg0}, []float64{0}, 1e-10, ""},
		{"within the tolerance", []float64{2e10 * (1 + 1e-11)}, []float64{2e10}, 1e-10, ""},
		{"beyond the tolerance", []float64{1, 1 + 1e-9}, []float64{1, 1}, 1e-10, "x[1]: got 1.000000001, want 1 (relative tolerance 1e-10)"},
		{"NaN against a finite value", []float64{nan}, []float64{1}, 1e-10, "x[0]: got NaN, want 1"},
		{"a finite value against NaN", []float64{1}, []float64{nan}, 1e-10, "x[0]: got 1, want NaN"},
		{"+Inf against a large finite value", []float64{inf}, []float64{math.MaxFloat64}, 1, "x[0]: got +Inf, want 1.7976931348623157e+308"},
		{"a length mismatch", []float64{1, 2}, []float64{1, 2, 3}, 1e-10, "x: 2 elements, want 3"},
		{"the first index", []float64{1, 2, 3, 4}, []float64{1, 2, 9, 9}, 0, "x[2]: got 3"},
	} {
		_, err := Agree("x", c.got, c.want, c.tol)
		if (err == nil) != (c.err == "") || err != nil && !strings.HasPrefix(err.Error(), c.err) {
			t.Errorf("%s: %v, want %q", c.name, err, c.err)
		}
	}
	// The worst finite relative error counts every element, a NaN none.
	if worst, err := Agree("x", []float64{nan, 2.5, 4.4}, []float64{1, 2, 4}, 1); err == nil || worst != 0.25 {
		t.Errorf("worst %v, %v; want 0.25 and the NaN's error", worst, err)
	}
	// Comparing nothing is not agreement.
	if _, err := (&ExecResult{}).AgreesWithSerial(&SerialResult{}, 0); err == nil {
		t.Error("an empty comparison agrees")
	}
}

// TestSameRunSeesEveryField perturbs one field at a time of the compiled
// engine's execution, bit-identical to the interpreter's; SameRun must
// catch each.
func TestSameRunSeesEveryField(t *testing.T) {
	prog := compileBackend(t, engineCorpus["stencil2d"], DefaultOptions(), passes.BackendHybrid)
	res, errs := threeWays(prog, testMachine(prog.Grid.Size()))
	a, b := res[0], res[1]
	if errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}
	if err := SameRun(prog, a, b); err != nil {
		t.Fatalf("two executions differ: %v", err)
	}
	m, s := b.Machine, b.Shm
	if m.TotalMessages() == 0 || s.TotalPulls() == 0 {
		t.Fatalf("want messages and pulls on the hybrid backend: %d, %d", m.TotalMessages(), s.TotalPulls())
	}
	up := func(x *float64) func() { old := *x; *x = math.Nextafter(old, math.Inf(1)); return func() { *x = old } }
	inc := func(x *int64) func() { *x++; return func() { *x-- } }
	for name, perturb := range map[string]func() func(){
		"virtual time":      func() func() { return up(&m.Time) },
		"rank clock":        func() func() { return up(&m.RankTime[3]) },
		"rank idle":         func() func() { return up(&m.RankIdle[3]) },
		"rank flops":        func() func() { return up(&m.RankFlops[3]) },
		"messages sent":     func() func() { return inc(&m.SentMsgs[3]) },
		"bytes sent":        func() func() { return inc(&m.SentBytes[3]) },
		"messages received": func() func() { return inc(&m.RecvMsgs[3]) },
		"pulls":             func() func() { return inc(&s.Pulls[3]) },
		"pulled bytes":      func() func() { return inc(&s.PulledBytes[3]) },
		"an array element":  func() func() { return up(&b.main["b"].data[40]) },
	} {
		restore := perturb()
		if err := SameRun(prog, a, b); err == nil {
			t.Errorf("%s perturbed: SameRun sees no difference", name)
		}
		restore()
	}
	// An array one result does not hold is a difference, not a skip.
	held := b.main["b"]
	delete(b.main, "b")
	if err := SameRun(prog, a, b); err == nil {
		t.Error("an unallocated array: SameRun sees no difference")
	}
	b.main["b"] = held
	// A main with no array compares nothing, which is not sameness.
	z := compileBackend(t, arraylessUnitSrc, DefaultOptions(), passes.BackendMP)
	res, errs = threeWays(z, testMachine(z.Grid.Size()))
	if errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}
	if err := SameRun(z, res[0], res[1]); !errors.Is(err, errNoArray) {
		t.Errorf("an arrayless main: %v, want %v", err, errNoArray)
	}
}
