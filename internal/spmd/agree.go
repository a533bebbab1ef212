package spmd

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"dhpf/internal/mpsim"
)

// Whether an execution computed the serial answer (Agree,
// AgreesWithSerial) and whether two executions are the same one
// (SameRun) is decided here and nowhere else.

// Agree compares got with want element by element.  Equal Float64bits
// agree, a NaN with the same NaN included.  Under tol 0 nothing else
// does, not even −0 and +0.  Under tol > 0 two finite values agree when
// |got−want| ≤ tol·max(1, |want|); a NaN or an infinity agrees only with
// its own bits.  The error names the array, the first index that
// disagrees and both values; a length difference is an error.  worst is
// the largest finite |got−want| / max(1, |want|) over the slice.
func Agree(name string, got, want []float64, tol float64) (worst float64, err error) {
	if len(got) != len(want) {
		return 0, fmt.Errorf("%s: %d elements, want %d", name, len(got), len(want))
	}
	bad := -1
	for i, g := range got {
		if math.Float64bits(g) == math.Float64bits(want[i]) {
			continue
		}
		rel := math.Abs(g-want[i]) / max(1, math.Abs(want[i]))
		finite := !math.IsNaN(rel) && !math.IsInf(rel, 0)
		if finite {
			worst = max(worst, rel)
		}
		if bad < 0 && (tol == 0 || !finite || rel > tol) {
			bad = i
		}
	}
	if bad < 0 {
		return worst, nil
	}
	g, w := got[bad], want[bad]
	if tol == 0 {
		return worst, fmt.Errorf("%s[%d]: got %v (%#x), want %v (%#x)", name, bad, g, math.Float64bits(g), w, math.Float64bits(w))
	}
	return worst, fmt.Errorf("%s[%d]: got %v, want %v (relative tolerance %g)", name, bad, g, w, tol)
}

// AgreesWithSerial applies Agree to main's named arrays against the
// serial run sr, every array of sr when none is named, and checks their
// bounds.  Comparing nothing is an error.  worst is the largest of
// Agree's.
func (er *ExecResult) AgreesWithSerial(sr *SerialResult, tol float64, names ...string) (worst float64, err error) {
	if len(names) == 0 {
		if names = sr.Names(); len(names) == 0 {
			return 0, errors.New("spmd: no array to compare with the serial run")
		}
	}
	for _, name := range names {
		want, wlo, whi, err := sr.Array(name)
		if err != nil {
			return worst, err
		}
		got, lo, hi, err := er.Global(name)
		if err != nil {
			return worst, err
		}
		if !slices.Equal(lo, wlo) || !slices.Equal(hi, whi) {
			return worst, fmt.Errorf("spmd: %s: bounds %v:%v, serial %v:%v", name, lo, hi, wlo, whi)
		}
		e, err := Agree(name, got, want, tol)
		if worst = max(worst, e); err != nil {
			return worst, fmt.Errorf("spmd: against serial: %w", err)
		}
	}
	return worst, nil
}

// SameRun returns an error unless a and b are the same execution of
// prog bit for bit: the machine (SameMachine), every thread's pulls and
// pulled bytes, and every array of main (SameArrays).  Kernel and nest
// counters differ between engines by design.
func SameRun(prog *Program, a, b *ExecResult) error {
	if err := SameMachine(a.Machine, b.Machine); err != nil {
		return err
	}
	if (a.Shm == nil) != (b.Shm == nil) || a.Shm != nil && (!slices.Equal(a.Shm.Pulls, b.Shm.Pulls) || !slices.Equal(a.Shm.PulledBytes, b.Shm.PulledBytes)) {
		return fmt.Errorf("pulls per thread differ: %+v, %+v", a.Shm, b.Shm)
	}
	return SameArrays(prog, a, b)
}

// SameMachine returns an error unless two machine results are equal bit
// for bit: the makespan, and every rank's clock, idle time, flops,
// messages and bytes sent and messages received.
func SameMachine(a, b *mpsim.Result) error {
	for i, f := range [][2][]float64{{{a.Time}, {b.Time}}, {a.RankTime, b.RankTime}, {a.RankIdle, b.RankIdle}, {a.RankFlops, b.RankFlops}} {
		if _, err := Agree([]string{"virtual time", "rank clock", "rank idle", "rank flops"}[i], f[0], f[1], 0); err != nil {
			return err
		}
	}
	for i, f := range [][2][]int64{{a.SentMsgs, b.SentMsgs}, {a.SentBytes, b.SentBytes}, {a.RecvMsgs, b.RecvMsgs}} {
		if !slices.Equal(f[0], f[1]) {
			return fmt.Errorf("%s per rank differ: %v, %v", []string{"messages sent", "bytes sent", "messages received"}[i], f[0], f[1])
		}
	}
	return nil
}

// errNoArray is SameArrays' error for a program whose main declares no
// array: there is nothing to compare.
var errNoArray = errors.New("spmd: main has no array to compare")

// SameArrays returns an error unless every array of main has the same
// bounds and bits in a and b: SameRun's part that holds across machines
// (message passing against shared memory).  An array either result does
// not hold is an error, and so is comparing nothing (errNoArray).
func SameArrays(prog *Program, a, b *ExecResult) error {
	main := prog.IR.Main()
	if main == nil {
		return errNoArray
	}
	n := 0
	for _, d := range main.Decls {
		if d.Rank() == 0 {
			continue
		}
		ga, loA, hiA, err := a.Global(d.Name)
		if err != nil {
			return err
		}
		gb, loB, hiB, err := b.Global(d.Name)
		if err != nil {
			return err
		}
		if !slices.Equal(loA, loB) || !slices.Equal(hiA, hiB) {
			return fmt.Errorf("%s: bounds differ: %v:%v, %v:%v", d.Name, loA, hiA, loB, hiB)
		}
		if _, err := Agree(d.Name, ga, gb, 0); err != nil {
			return err
		}
		n++
	}
	if n == 0 {
		return errNoArray
	}
	return nil
}
