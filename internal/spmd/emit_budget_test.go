package spmd_test

import (
	"testing"

	"dhpf/internal/ir"
	"dhpf/internal/nas"
	"dhpf/internal/spmd"
)

// TestEmitAllocBudget pins what rendering costs once the program's plans
// exist: the four node programs of SP 32³ together, at the measured count
// plus a tenth.  A printer that re-derives a statement's iteration set
// under every enclosing loop, re-plans every event per rank and formats
// each line through fmt allocated 17 576 times here.
func TestEmitAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are inflated under -race")
	}
	const budget = 1_080 // measured 984
	prog := compileAt(t, nas.SPSource(32, 2, 2, 2), 0)
	render := func() {
		for r := 0; r < prog.Grid.Size(); r++ {
			if prog.EmitNodeProgram(r) == "" {
				t.Fatal("no output")
			}
		}
	}
	render() // the schedule and the zero-point plans are built once per program
	got := testing.AllocsPerRun(5, render)
	if got > budget {
		t.Errorf("four node programs of SP(32,2,2,2): %.0f allocations, budget %d", got, budget)
	}
	t.Logf("four node programs of SP(32,2,2,2): %.0f allocations", got)
}

// TestEmitDerivesEachStatementOnce: one rank's node program builds the
// iteration set of every assignment and call exactly once — however deep
// the statement sits — and of nothing else.
func TestEmitDerivesEachStatementOnce(t *testing.T) {
	for _, c := range []struct{ name, src string }{
		{"sp16", nas.SPSource(16, 1, 2, 2)},
		{"bt12", nas.BTSource(12, 1, 2, 2)},
		{"lu16", nas.LUSource(16, 1, 2, 2)},
		{"spmod16", nas.SPModSource(16, 1, 2, 2)},
	} {
		prog := compileAt(t, c.src, 0)
		for rank := 0; rank < prog.Grid.Size(); rank++ {
			fills := spmd.EmitFills(prog, rank)
			stmts := 0
			for _, proc := range prog.IR.Procs {
				ir.Walk(proc.Body, func(s ir.Stmt, nest []*ir.Loop) bool {
					want := 0
					switch s.(type) {
					case *ir.Assign, *ir.CallStmt:
						want = 1
						stmts++
					}
					if got := fills[s.StmtID()]; got != want {
						t.Errorf("%s rank %d: %T %d at depth %d: iteration set built %d times, want %d",
							c.name, rank, s, s.StmtID(), len(nest), got, want)
					}
					return true
				})
			}
			total := 0
			for _, n := range fills {
				total += n
			}
			if total != stmts {
				t.Errorf("%s rank %d: %d iteration sets built for %d statements", c.name, rank, total, stmts)
			}
		}
	}
}
