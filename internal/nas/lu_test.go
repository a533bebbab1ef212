package nas

import (
	"fmt"
	"testing"

	"dhpf/internal/spmd"
	"dhpf/internal/trace"
)

func TestLUSourceParses(t *testing.T) {
	if _, err := spmd.CompileSource(LUSource(12, 1, 2, 2), nil, spmd.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
}

func TestLUCompiledMatchesSerial(t *testing.T) {
	for _, grid := range [][2]int{{2, 2}, {1, 3}, {3, 2}} {
		src := LUSource(ClassS.N, 2, grid[0], grid[1])
		res := verifyCompiled(t, src, grid[0]*grid[1], []string{"u", "v"})
		if grid[0]*grid[1] > 1 && res.Machine.TotalMessages() == 0 {
			t.Errorf("grid %v: LU must communicate", grid)
		}
	}
}

func TestLUDiagonalWavefrontShape(t *testing.T) {
	// The 2-D wavefront serializes along the grid's diagonal: the last
	// rank (both coordinates maximal) idles longer than rank 0 in the
	// lower-triangular sweep phase.
	src := LUSource(16, 1, 2, 2)
	prog, err := spmd.CompileSource(src, nil, spmd.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallMachine(4)
	cfg.Trace = true
	res, err := prog.Execute(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := trace.Summarize(res.Machine)
	if s.IdleFrac[3] <= s.IdleFrac[0] {
		t.Errorf("diagonal wavefront idle shape wrong: rank0 %.3f rank3 %.3f",
			s.IdleFrac[0], s.IdleFrac[3])
	}
}

func TestLUHand2DMatchesSerial(t *testing.T) {
	n, steps := 12, 2
	agrees := handAgrees(t, LUSource(n, steps, 1, 1))
	for _, grid := range [][2]int{{1, 1}, {2, 2}, {3, 2}} {
		run, err := RunLU2D(n, steps, grid[0], grid[1], smallMachine(grid[0]*grid[1]))
		if err != nil {
			t.Fatalf("grid %v: %v", grid, err)
		}
		agrees(fmt.Sprintf("grid %v", grid), map[string][]float64{"u": run.U, "v": run.V})
	}
}

func TestLUHandVsCompiled(t *testing.T) {
	// The hand 2-D pipelined baseline should beat the compiled code (as
	// with SP/BT) but both must be correct; compare times and messages.
	n, steps, p1, p2 := 16, 1, 2, 2
	hand, err := RunLU2D(n, steps, p1, p2, smallMachine(4))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := spmd.CompileSource(LUSource(n, steps, p1, p2), nil, spmd.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Execute(smallMachine(4))
	if err != nil {
		t.Fatal(err)
	}
	if hand.Machine.Time <= 0 || res.Machine.Time <= 0 {
		t.Fatal("bad times")
	}
	if res.Machine.Time < hand.Machine.Time*0.5 {
		t.Errorf("compiled LU implausibly faster: hand %g vs dhpf %g",
			hand.Machine.Time, res.Machine.Time)
	}
}
