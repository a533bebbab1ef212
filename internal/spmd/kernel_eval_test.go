package spmd_test

// The default engine runs kernel units on the in-process evaluator, and no
// shipped program bails, so no ordinary run exercises the decline path —
// a precheck bail hands the invocation back to the walker.  These tests
// keep all three ways a nest runs (interpreter, evaluator, declined to the
// walker) bit-identical on the NAS corpus and the shipped programs.

import (
	"fmt"
	"go/ast"
	"go/constant"
	goparser "go/parser"
	"go/token"
	"go/types"
	"math/bits"
	"regexp"
	"testing"

	"dhpf/internal/ir"
	"dhpf/internal/mpsim"
	"dhpf/internal/parser"
	"dhpf/internal/spmd"
)

// threeWaysAgree executes src at the grain on the backend three ways —
// the interpreter, the default engine (kernel units on the evaluator, but
// for the bails invocations the row expects to decline) and the default
// engine with every precheck bailing (every invocation declined to the
// walker) — and requires identical clocks, flops, traffic and arrays.
// The codegen engine, with no kernel registered in this package, must be
// the default engine again.  It returns the program.
func threeWaysAgree(t *testing.T, src, backend string, grain int, bails int64) *spmd.Program {
	opt := spmd.DefaultOptions()
	opt.Backend = backend
	opt.PipelineGrain = grain
	prog, err := spmd.CompileSource(src, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	interp := execute(t, prog, spmd.EngineInterp)
	eval := execute(t, prog, spmd.EngineCompiled)
	codegen := execute(t, prog, spmd.EngineCodegen)
	restore := spmd.BailAlways(prog)
	bailed := execute(t, prog, spmd.EngineCompiled)
	restore()
	if k := eval.Kernels; k.EvalCalls == 0 || k.TotalBails() != bails {
		t.Errorf("default engine: %s, want units evaluated and %d bails", k, bails)
	}
	if k, n := bailed.Kernels, bailed.Nests; k.EvalCalls != 0 || k.TotalBails() != eval.Kernels.EvalCalls+bails || n.Walked <= eval.Nests.Walked {
		t.Errorf("bailing run: %s; %s, want each of the %d invocations declined to the walker", k, n, eval.Kernels.EvalCalls+bails)
	}
	for k, res := range []*spmd.ExecResult{eval, codegen, bailed} {
		if err := spmd.SameRun(prog, interp, res); err != nil {
			t.Fatalf("%s against interp: %v", []string{"evaluator", "codegen engine", "every precheck bailed"}[k], err)
		}
	}
	return prog
}

// TestThreeWaysAgree runs the clock corpus (SP, BT, LU, the shipped
// programs) at pipeline grains 1 and 8 on mp and shm three ways, and the
// hoist rows, which have no pipeline, on both backends.
func TestThreeWaysAgree(t *testing.T) {
	names, srcs := clockCorpus(t)
	for _, name := range names {
		for _, backend := range []string{"mp", "shm"} {
			for _, grain := range []int{1, 8} {
				t.Run(fmt.Sprintf("%s/%s/g%d", name, backend, grain), func(t *testing.T) {
					threeWaysAgree(t, srcs[name], backend, grain, 0)
				})
			}
		}
	}
	for _, row := range spmd.HoistRows {
		for _, backend := range []string{"mp", "shm"} {
			t.Run(fmt.Sprintf("%s/%s", row.Name, backend), func(t *testing.T) {
				prog := threeWaysAgree(t, row.Src, backend, 1, int64(row.Bails))
				if got := spmd.Hoisted(prog); got != row.Hoisted {
					t.Errorf("the evaluator hoists %d subtrees, want %d", got, row.Hoisted)
				}
			})
		}
	}
}

// FuzzThreeWays fuzzes the configuration TestThreeWaysAgree enumerates:
// program, grain 1–16 and backend change strip windows, guard boxes and
// event interleavings under the same three-way identity.
func FuzzThreeWays(f *testing.F) {
	f.Add(uint8(3), uint8(0), false)
	f.Add(uint8(4), uint8(2), true)
	f.Add(uint8(5), uint8(0), true)
	corpus, _ := clockCorpus(f)
	for i := range spmd.HoistRows {
		f.Add(uint8(len(corpus)+i), uint8(3), i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, idx, grain uint8, shm bool) {
		names, srcs := clockCorpus(t)
		bails := make([]int64, len(names))
		for _, row := range spmd.HoistRows {
			names, bails = append(names, row.Name), append(bails, int64(row.Bails))
			srcs[row.Name] = row.Src
		}
		i, backend, g := int(idx)%len(names), "mp", 1+int(grain)%16
		if shm {
			backend = "shm"
		}
		threeWaysAgree(t, srcs[names[i]], backend, g, bails[i])
	})
}

// TestEveryOpcodeRuns: every arm of krun's dispatch is an opcode of some
// program of the clock corpus or the hoist rows, which TestThreeWaysAgree
// runs against the interpreter bit for bit.  An arm no program reaches is
// dead code or an untested arm; an opcode with no arm would be dropped.
func TestEveryOpcodeRuns(t *testing.T) {
	arms := krunArms(t)
	names, srcs := clockCorpus(t)
	for _, row := range spmd.HoistRows {
		names, srcs[row.Name] = append(names, row.Name), row.Src
	}
	var codes uint64
	for _, name := range names {
		prog, err := spmd.CompileSource(srcs[name], nil, spmd.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		codes |= spmd.Opcodes(prog)
	}
	var all uint64
	for code, arm := range arms {
		if all |= 1 << code; codes&(1<<code) == 0 {
			t.Errorf("no program's evaluator contains case %s", arm)
		}
	}
	for m := codes &^ all; m != 0; m &= m - 1 {
		t.Errorf("opcode %d has no case in krun", bits.TrailingZeros64(m))
	}
}

// krunArms returns the cases of krun's switch on in.code, by value, from
// kernel_eval.go type-checked on its own: what it refers to in the rest of
// the package does not change a constant.
func krunArms(t *testing.T) map[uint64]string {
	fset := token.NewFileSet()
	f, err := goparser.ParseFile(fset, "kernel_eval.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	(&types.Config{Error: func(error) {}}).Check("spmd", fset, []*ast.File{f}, info)
	arms := map[uint64]string{}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == "krun" {
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if sw, ok := n.(*ast.SwitchStmt); ok && types.ExprString(sw.Tag) == "in.code" {
					for _, c := range sw.Body.List {
						for _, x := range c.(*ast.CaseClause).List {
							v, exact := constant.Uint64Val(info.Types[x].Value)
							if !exact || v >= 64 {
								t.Fatalf("case %s: not an opcode", types.ExprString(x))
							}
							arms[v] = types.ExprString(x)
						}
					}
				}
				return true
			})
		}
	}
	if len(arms) == 0 {
		t.Fatal("no switch on in.code in krun")
	}
	return arms
}

// TestUnitUnderWalkedLoop: a nest whose outer loop is no unit — its own
// statement calls max with an argument too many, outside the unit grammar
// — while its inner loop is.  The walker iterates the outer loop and
// interprets that statement; the unit is claimed once per outer iteration
// on every rank, its slots reloaded from the walker's binding and the
// frame each time: s, stored by the walker, is read by the unit, and t,
// stored by the unit, by the walker's next iteration.  (Before units were
// cut from the IR the whole nest was declined: nothing in it ran as a
// unit.)
func TestUnitUnderWalkedLoop(t *testing.T) {
	prog, err := spmd.CompileSource(`
program part
param N = 16
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align a with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs
subroutine main()
  real a(0:N-1, 0:N-1)
  real s
  real t
  t = 0.5
  do j = 0, N-1
    s = max(0.25 * j + t, 1.0, 100.0)
    do i = 0, N-1
      t = 2.0 * i + s
      a(i,j) = a(i,j) + t
    enddo
  enddo
end
`, nil, spmd.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if units := prog.KernelUnits(); len(units) != 1 || units[0].RootDepth != 1 {
		t.Fatalf("want one unit, rooted at the inner loop; got %d", len(units))
	}
	interp := execute(t, prog, spmd.EngineInterp)
	for _, engine := range []spmd.Engine{spmd.EngineCompiled, spmd.EngineCodegen} {
		res := execute(t, prog, engine)
		// 16 outer iterations on each of 4 ranks; interpreted are t = 0.5 on
		// every rank and s once per column, on the column's owner.
		if k, n := res.Kernels, res.Nests; k.EvalCalls != 16*4 || k.TotalBails() != 0 || n.Walked != 4+16 || n.Declined != 0 {
			t.Errorf("%s: %s; %s, want 64 invocations, 20 interpreted instances, nothing declined", engine, k, n)
		}
		if err := spmd.SameRun(prog, interp, res); err != nil {
			t.Fatalf("%s against interp: %v", engine, err)
		}
	}
}

// TestBailsDeclineToWalker forces one precheck bail per reason a program
// can reach from source (guard-overflow needs a unit's capacity shrunk:
// TestGuardOverflowBails in internal/codegen).  The bailed invocations,
// and only they, are interpreted — Nests.Walked is their statement
// instance count — and results, clocks and traffic equal the
// interpreter's.  Every faulty statement is a read-modify-write, so a unit
// that stored anything before its precheck bailed would show: the walker
// would add the increment a second time.
func TestBailsDeclineToWalker(t *testing.T) {
	for _, c := range []struct {
		name, src     string
		reason        spmd.KernelBail
		bails, walked int64
	}{
		// Rank 3's guard box is i in 12..15, over which b(i+4) reaches 19,
		// past b's 17: the proof fails although the condition keeps the
		// reads at i = 12, 13 in bounds.  Those two instances are interpreted.
		{"bounds-proof", `
program bp
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  real b(0:N+1)
  do i = 0, N+1
    b(i) = 0.5 * i
  enddo
  do i = 0, N-1
    a(i) = 1.0 * i
  enddo
  do i = 0, N-1
    if (i < N-2) then
      a(i) = a(i) + b(i+4)
    endif
  enddo
end
`, spmd.BailBoundsProof, 1, 2},
		// The dummy v is declared 0:N-1, the actual a is 0:2N-1: the unit
		// inlined the dummy's shape, so it declines on both ranks the call
		// runs on (the owners of a(0:N-1)) and their 16 instances are
		// interpreted.
		{"geometry", `
program geo
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine bump(v)
  real v(0:N-1)
  do i = 0, N-1
    v(i) = v(i) + 1.0
  enddo
end
subroutine main()
  real a(0:2*N-1)
  do i = 0, 2*N-1
    a(i) = 0.25 * i
  enddo
  call bump(a)
end
`, spmd.BailGeometry, 2, 16},
	} {
		prog, err := spmd.CompileSource(c.src, nil, spmd.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		interp := execute(t, prog, spmd.EngineInterp)
		for _, engine := range []spmd.Engine{spmd.EngineCompiled, spmd.EngineCodegen} {
			res := execute(t, prog, engine)
			if k, n := res.Kernels, res.Nests; k.Bails[c.reason] != c.bails || k.TotalBails() != c.bails || k.EvalCalls == 0 || n.Walked != c.walked {
				t.Errorf("%s on %s: %s; %s, want %d %s bails and %d interpreted instances",
					c.name, engine, k, n, c.bails, c.reason, c.walked)
			}
			if err := spmd.SameRun(prog, interp, res); err != nil {
				t.Fatalf("%s on %s against interp: %v", c.name, engine, err)
			}
		}
	}
}

// TestRuntimeErrorsSameOnEveryEngine: a subscript out of bounds, an array
// nobody declared, and an intrinsic, arity, operator or comparison outside
// the unit grammar fail with the interpreter's error text on every engine.
// On the compiled engines the precheck cannot prove the first and bails;
// the others are in no kernel unit at all — the extractor admits only what
// its back ends implement; either way the walker interprets the loop and
// the interpreter's panic is raised.  Only rank 3 runs the faulty
// statement, so the rank in the message is fixed — except for the
// comparison, which every rank evaluates: whichever fails first reports.
func TestRuntimeErrorsSameOnEveryEngine(t *testing.T) {
	const head = `
program bad
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  do i = 0, N-1
    a(i) = 1.0 * i
  enddo
  do i = 12, N-1
`
	// What the parser would never produce is edited into the IR: these
	// rows' statements are parsed with a stand-in the edit replaces.
	edits := map[string]func(ir.Stmt){
		"unknown intrinsic": func(s ir.Stmt) {
			if a, ok := s.(*ir.Assign); ok {
				ir.WalkExpr(a.RHS, func(x ir.Expr) {
					if in, ok := x.(*ir.Intrinsic); ok {
						in.Name = "tanh"
					}
				})
			}
		},
		"unknown operator": func(s ir.Stmt) {
			if a, ok := s.(*ir.Assign); ok {
				ir.WalkExpr(a.RHS, func(x ir.Expr) {
					if b, ok := x.(*ir.Bin); ok && b.Op == '/' {
						b.Op = '%'
					}
				})
			}
		},
		"unknown comparison": func(s ir.Stmt) {
			if c, ok := s.(*ir.IfStmt); ok {
				c.Cond.Op = "<>"
			}
		},
	}
	anyRank := regexp.MustCompile(`^spmd: rank \d:`)
	for _, c := range []struct{ name, stmt, want string }{
		{"out of bounds", "a(i) = a(i) + a(i+4)", "spmd: rank 3: spmd: a[16] out of bounds [[0]:[15]]"},
		{"undeclared read", "a(i) = a(i) + c(i)", `spmd: rank 3: spmd: read of undeclared array "c"`},
		{"intrinsic arity", "a(i) = a(i) + min(a(i))", "spmd: rank 3: runtime error: index out of range [1] with length 1"},
		{"unknown intrinsic", "a(i) = a(i) + sin(0.5)", "spmd: rank 3: spmd: cannot evaluate tanh(0.5)"},
		{"unknown operator", "a(i) = a(i) / 2.0", "spmd: rank 3: spmd: cannot evaluate (a(i) % 2)"},
		{"unknown comparison", "if (i < 14) then\n      a(i) = a(i) + 1.0\n    endif", `spmd: rank N: sched: unknown comparison "<>"`},
	} {
		tree, err := parser.Parse(head + "    " + c.stmt + "\n  enddo\nend\n")
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if edit := edits[c.name]; edit != nil {
			ir.Walk(tree.Main().Body, func(s ir.Stmt, _ []*ir.Loop) bool {
				edit(s)
				return true
			})
		}
		prog, err := spmd.Compile(tree, nil, spmd.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, engine := range []spmd.Engine{spmd.EngineInterp, spmd.EngineCompiled, spmd.EngineCodegen} {
			_, err := prog.ExecuteEngine(mpsim.SP2Config(4), engine)
			if err == nil {
				t.Errorf("%s on %s: no error, want %q", c.name, engine, c.want)
				continue
			}
			got := err.Error()
			if c.name == "unknown comparison" {
				got = anyRank.ReplaceAllString(got, "spmd: rank N:")
			}
			if got != c.want {
				t.Errorf("%s on %s: error %q, want %q", c.name, engine, got, c.want)
			}
		}
	}
}
