package ir_test

import (
	"slices"
	"testing"

	"dhpf/internal/ir"
	"dhpf/internal/nas"
	"dhpf/internal/parser"
)

// refAssignments is the reference walk: every assignment with a fresh
// copy of its enclosing nest, by plain recursion.
func refAssignments(body []ir.Stmt, nest []*ir.Loop, out []ir.AssignInNest) []ir.AssignInNest {
	for _, s := range body {
		switch st := s.(type) {
		case *ir.Assign:
			out = append(out, ir.AssignInNest{Assign: st, Nest: slices.Clone(nest)})
		case *ir.Loop:
			out = refAssignments(st.Body, append(slices.Clone(nest), st), out)
		case *ir.IfStmt:
			out = refAssignments(st.Then, nest, out)
			out = refAssignments(st.Else, nest, out)
		}
	}
	return out
}

// TestWalkKeepsOneLoopStack: a walk of SP12's main body allocates at most
// once, however deep its nests go, and Assignments — which keeps each
// nest past the callback — still pairs every assignment with its own
// nest.
func TestWalkKeepsOneLoopStack(t *testing.T) {
	prog := parser.MustParse(nas.SPSource(12, 1, 2, 2))
	body := prog.Main().Body
	stmts, deepest := 0, 0
	ir.Walk(body, func(_ ir.Stmt, loops []*ir.Loop) bool {
		stmts++
		deepest = max(deepest, len(loops))
		return true
	})
	if deepest < 4 {
		t.Fatalf("SP12's main nests %d deep; the pin wants at least 4", deepest)
	}
	n := testing.AllocsPerRun(20, func() {
		ir.Walk(body, func(_ ir.Stmt, loops []*ir.Loop) bool {
			stmts += len(loops)
			return true
		})
	})
	if n > 1 {
		t.Errorf("Walk over %d statements, %d loops deep, allocates %v objects; want at most 1", stmts, deepest, n)
	}
	for _, proc := range prog.Procs {
		got, want := ir.Assignments(proc.Body), refAssignments(proc.Body, nil, nil)
		if len(got) != len(want) {
			t.Fatalf("%s: %d assignments, reference walk finds %d", proc.Name, len(got), len(want))
		}
		for i := range got {
			if got[i].Assign != want[i].Assign || !slices.Equal(got[i].Nest, want[i].Nest) {
				t.Fatalf("%s: assignment %d is %v in %s, reference walk says %v in %s", proc.Name, i,
					got[i].Assign.LHS, ir.NestVars(got[i].Nest), want[i].Assign.LHS, ir.NestVars(want[i].Nest))
			}
		}
	}
}
