package cp_test

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"dhpf/internal/codegen"
	"dhpf/internal/cp"
	"dhpf/internal/hpf"
	"dhpf/internal/ir"
	"dhpf/internal/nas"
	"dhpf/internal/spmd"
)

// oracleTermKey and oracleCPKey are the Sprintf-and-concatenate key
// builders PartitionKey's one-buffer form replaced, kept as its oracle.
func oracleTermKey(ctx *cp.Context, proc *ir.Procedure, t cp.Term) string {
	l := ctx.Layout(proc, t.Array)
	if l == nil {
		return "<replicated>"
	}
	key := ""
	for d, dl := range l.Dims {
		if dl.Kind != hpf.Block {
			continue
		}
		s := t.Subs[d]
		if s.IsRange {
			key += fmt.Sprintf("g%d:b%d:t%d:[%d:%d];", dl.GridDim, dl.BlockSz, dl.TplOff,
				s.Lo.EvalOr(ctx.Bind.Params, 0), s.Hi.EvalOr(ctx.Bind.Params, 0))
			continue
		}
		off := s.Off.EvalOr(ctx.Bind.Params, 0)
		key += fmt.Sprintf("g%d:b%d:t%d:%s*%d+%d;", dl.GridDim, dl.BlockSz, dl.TplOff, s.Var, s.Coef, off)
	}
	return key
}

func oracleCPKey(ctx *cp.Context, proc *ir.Procedure, c *cp.CP) string {
	if c.Replicated() {
		return "<replicated>"
	}
	key := ""
	for _, t := range c.Terms {
		key += oracleTermKey(ctx, proc, t) + "|"
	}
	return key
}

// TestPartitionKeyMatchesOracle compares the keys on every CP selection
// meets in the corpus: ON_HOME of every reference of every assignment
// (the candidates it enumerates), every CP it chose — propagated range
// terms and multi-term unions included — and every entry CP.
func TestPartitionKeyMatchesOracle(t *testing.T) {
	type program struct {
		name, src string
		opt       spmd.Options
	}
	def := spmd.DefaultOptions()
	progs := []program{
		{"sp32", nas.SPSource(32, 2, 2, 2), def},
		{"bt24", nas.BTSource(24, 2, 2, 2), def},
		{"lu32", nas.LUSource(32, 2, 2, 2), def},
		{"spmod32", nas.SPModSource(32, 2, 2, 2), def},
		{"sp18-3x3", nas.SPSource(18, 1, 3, 3), def},
	}
	for _, c := range codegen.Corpus() {
		progs = append(progs, program{c.Name, c.Source, c.Opt})
	}
	files, err := filepath.Glob("../../testdata/*.hpf")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{filepath.Base(f), string(src), def})
	}
	keys, ranges, unions := 0, 0, 0
	for _, pr := range progs {
		p, err := spmd.CompileSource(pr.src, nil, pr.opt)
		if err != nil {
			t.Fatalf("%s: %v", pr.name, err)
		}
		check := func(proc *ir.Procedure, c *cp.CP) {
			keys++
			if len(c.Terms) > 1 {
				unions++
			}
			for _, term := range c.Terms {
				for _, s := range term.Subs {
					if s.IsRange {
						ranges++
					}
				}
			}
			if got, want := cp.PartitionKey(p.Ctx, proc, c), oracleCPKey(p.Ctx, proc, c); got != want {
				t.Errorf("%s %s: key of %s = %q, oracle %q", pr.name, proc.Name, c, got, want)
			}
		}
		for _, proc := range p.IR.Procs {
			if e := p.Sel.Entry[proc.Name]; e != nil {
				check(proc, e)
			}
			ir.Walk(proc.Body, func(s ir.Stmt, _ []*ir.Loop) bool {
				switch st := s.(type) {
				case *ir.Assign:
					for _, r := range append([]*ir.ArrayRef{st.LHS}, ir.Refs(st.RHS)...) {
						if len(r.Subs) > 0 && p.Ctx.Layout(proc, r.Name) != nil {
							check(proc, cp.OnHome(r))
						}
					}
					check(proc, p.Sel.CPOf(st.ID))
				case *ir.CallStmt:
					check(proc, p.Sel.CPOf(st.ID))
				}
				return true
			})
		}
	}
	if ranges == 0 || unions == 0 {
		t.Errorf("corpus reached %d range subscripts and %d multi-term CPs over %d keys: both key forms must be exercised", ranges, unions, keys)
	}
}
