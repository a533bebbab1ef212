package nas

// Differential check of the compiled execution engine against the
// tree-walking interpreter on the full NAS-class codes (SP, BT, and the
// LU 2-D wavefront): globals bit-identical, virtual clocks and message
// traffic identical.  This is the heavyweight end of the differential
// corpus in internal/spmd — real multi-procedure programs with
// pipelined sweeps and boundary exchanges.

import (
	"testing"

	"dhpf/internal/ir"
	"dhpf/internal/spmd"
)

func TestEnginesByteIdenticalNAS(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		procs int
	}{
		{"sp", SPSource(12, 1, 2, 2), 4},
		{"bt", BTSource(12, 1, 2, 2), 4},
		{"lu", LUSource(12, 1, 2, 2), 4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			prog, err := spmd.CompileSource(c.src, nil, spmd.DefaultOptions())
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			cfg := smallMachine(c.procs)
			ri, err := prog.ExecuteEngine(cfg, spmd.EngineInterp)
			if err != nil {
				t.Fatalf("interp: %v", err)
			}
			rc, err := prog.ExecuteEngine(cfg, spmd.EngineCompiled)
			if err != nil {
				t.Fatalf("compiled: %v", err)
			}
			if err := spmd.SameRun(prog, ri, rc); err != nil {
				t.Fatalf("compiled against interp: %v", err)
			}
		})
	}
}

// TestNestCoverageNAS pins where the NAS codes spend their statement
// instances under the compiled engines: every one runs inside a kernel
// unit the engines claim from the walker, none through the walker's
// per-instance Assign, no precheck bails and no compute nest is left
// without a unit.  A schedule change that pushes a hot loop out of a nest
// fails here before it shows as a slowdown.  The modular SP is checked on its schedule only: it
// does not run to completion yet (ROADMAP item 1b-i).
func TestNestCoverageNAS(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		grain int
	}{
		{"sp16", SPSource(16, 1, 2, 2), 0},
		{"bt12", BTSource(12, 1, 2, 2), 0},
		{"lu16-g1", LUSource(16, 1, 2, 2), 1},
		{"lu16-g8", LUSource(16, 1, 2, 2), 8},
	}
	for _, c := range cases {
		opt := spmd.DefaultOptions()
		if c.grain > 0 {
			opt.PipelineGrain = c.grain
		}
		prog, err := spmd.CompileSource(c.src, nil, opt)
		if err != nil {
			t.Fatalf("%s: compile: %v", c.name, err)
		}
		if n := assignsOutsideNests(prog); n != 0 {
			t.Errorf("%s: %d assignments lie outside every compute nest", c.name, n)
		}
		for _, engine := range []spmd.Engine{spmd.EngineCompiled, spmd.EngineCodegen} {
			res, err := prog.ExecuteEngine(smallMachine(4), engine)
			if err != nil {
				t.Fatalf("%s %s: %v", c.name, engine, err)
			}
			if n, k := res.Nests, res.Kernels; n.Walked != 0 || n.Declined != 0 || k.EvalCalls+k.Calls == 0 || k.TotalBails() != 0 {
				t.Errorf("%s %s: %s; %s, want every instance inside a kernel unit", c.name, engine, n, k)
			}
		}
	}
	prog, err := spmd.CompileSource(SPModSource(12, 1, 2, 2), nil, spmd.DefaultOptions())
	if err != nil {
		t.Fatalf("spmod12: compile: %v", err)
	}
	if n := assignsOutsideNests(prog); n != 0 {
		t.Errorf("spmod12: %d assignments lie outside every compute nest", n)
	}
}

// assignsOutsideNests counts the assignments of prog that no loop the
// schedule marks as a compute nest encloses.
func assignsOutsideNests(prog *spmd.Program) int {
	n := 0
	for _, proc := range prog.IR.Procs {
		ps := prog.Schedule().Proc(proc)
		ir.Walk(proc.Body, func(s ir.Stmt, nest []*ir.Loop) bool {
			if _, ok := s.(*ir.Assign); ok {
				inside := false
				for _, l := range nest {
					inside = inside || ps.Loop(l).ComputeNest
				}
				if !inside {
					n++
				}
			}
			return true
		})
	}
	return n
}
