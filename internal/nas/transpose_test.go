package nas

import (
	"fmt"
	"testing"
)

func TestTransposeSPMatchesSerial(t *testing.T) {
	n, steps := 12, 2
	agrees := handAgrees(t, SPSource(n, steps, 1, 1))
	for _, procs := range []int{1, 2, 4} {
		run, err := RunTranspose("sp", n, steps, procs, smallMachine(procs))
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		agrees(fmt.Sprintf("procs=%d", procs), map[string][]float64{"u": run.U, "rhs": run.R})
	}
}

func TestTransposeBTMatchesSerial(t *testing.T) {
	n, steps := 12, 1
	agrees := handAgrees(t, BTSource(n, steps, 1, 1))
	for _, procs := range []int{2, 3} {
		run, err := RunTranspose("bt", n, steps, procs, smallMachine(procs))
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		agrees(fmt.Sprintf("procs=%d", procs), map[string][]float64{"u": run.U, "r": run.R})
	}
}

func TestTransposeMovesMoreBytesThanMultipart(t *testing.T) {
	// The transpose strategy ships O(n³/P) per step; multipartitioning
	// ships only boundary faces.  This is the structural reason the
	// paper's PGI codes trail at scale.
	n, steps, procs := 16, 1, 4
	tp, err := RunTranspose("sp", n, steps, procs, smallMachine(procs))
	if err != nil {
		t.Fatal(err)
	}
	mp, err := RunMultipart("sp", n, steps, procs, smallMachine(procs))
	if err != nil {
		t.Fatal(err)
	}
	if tp.Machine.TotalBytes() <= mp.Machine.TotalBytes() {
		t.Errorf("transpose bytes %d ≤ multipart bytes %d", tp.Machine.TotalBytes(), mp.Machine.TotalBytes())
	}
}
