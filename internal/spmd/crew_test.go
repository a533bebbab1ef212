package spmd_test

// An execution runs on the crew — machine, mailboxes, rank executors —
// the Program kept from its last clean execution (exec.go): what it
// computes and measures must be what a fresh crew does.

import (
	"errors"
	"testing"

	"dhpf/internal/mpsim"
	"dhpf/internal/nas"
	"dhpf/internal/passes"
	"dhpf/internal/spmd"
)

// TestReusedCrewIsFresh: on every engine × backend, executions 1–3 of
// one Program equal a freshly compiled Program's first execution bit for
// bit — clocks, idle, flops, traffic, pulls, arrays and kernel and nest
// counters — and leave an earlier result's arrays as they were.  An
// execution the virtual-time limit aborts (before the third) or one
// traced does not leak into the next, and one Program runs its engines in
// any order.
func TestReusedCrewIsFresh(t *testing.T) {
	engines := []spmd.Engine{spmd.EngineInterp, spmd.EngineCompiled, spmd.EngineCodegen}
	for _, c := range []struct {
		name, src string
		grain     int
	}{
		{"lu8 grain 1", nas.LUSource(8, 1, 2, 2), 1}, // a wavefront
		{"bt8", nas.BTSource(8, 1, 2, 2), 0},         // dozens of solve_cell calls per rank
		{"leaf calls", leafCallsSrc, 0},
	} {
		for _, backend := range []string{passes.BackendMP, passes.BackendShm, passes.BackendHybrid} {
			name := c.name + " on " + backend
			fresh := map[spmd.Engine]*spmd.ExecResult{}
			for _, engine := range engines {
				want := execute(t, compileOn(t, c.src, c.grain, backend), engine)
				fresh[engine] = want
				prog := compileOn(t, c.src, c.grain, backend)
				first := execute(t, prog, engine)
				kept := globals(t, prog, first)
				requireSameExecution(t, prog, name+", first", want, first)
				requireSameExecution(t, prog, name+", second", want, execute(t, prog, engine))

				limited := mpsim.SP2Config(prog.Grid.Size())
				limited.TimeLimit = want.Machine.Time / 2
				if _, err := prog.ExecuteEngine(limited, engine); !errors.Is(err, mpsim.ErrTimeLimit) {
					t.Fatalf("%s, %s: an execution limited to half its makespan returned %v", name, engine, err)
				}
				requireSameExecution(t, prog, name+", third, after an abort", want, execute(t, prog, engine))

				traced := mpsim.SP2Config(prog.Grid.Size())
				traced.Trace = true
				if res, err := prog.ExecuteEngine(traced, engine); err != nil || len(res.Machine.Events) == 0 {
					t.Fatalf("%s, %s: a traced execution returned %v and %d events", name, engine, err, len(res.Machine.Events))
				}
				after := execute(t, prog, engine)
				if len(after.Machine.Events) != 0 {
					t.Fatalf("%s, %s: an untraced execution after a traced one has %d events", name, engine, len(after.Machine.Events))
				}
				requireSameExecution(t, prog, name+", after a traced execution", want, after)

				for array, data := range globals(t, prog, first) {
					if _, err := spmd.Agree(array, data, kept[array], 0); err != nil {
						t.Fatalf("%s, %s: a later execution changed the first one's arrays: %v", name, engine, err)
					}
				}
			}
			prog := compileOn(t, c.src, c.grain, backend)
			for _, engine := range []spmd.Engine{spmd.EngineCompiled, spmd.EngineInterp, spmd.EngineCodegen, spmd.EngineCompiled} {
				requireSameExecution(t, prog, name+", switching to "+engine.String(), fresh[engine], execute(t, prog, engine))
			}
		}
	}
}

// TestResultOutlivesItsCrew: a result holds rank 0's main arrays, which
// the crew forgets at the join, so the next execution — borrowing the
// same crew, on another goroutine — neither writes them nor reads them
// while the result's owner reads it (run under -race in CI).
func TestResultOutlivesItsCrew(t *testing.T) {
	for _, backend := range []string{passes.BackendMP, passes.BackendShm} {
		prog := compileOn(t, nas.BTSource(8, 1, 2, 2), 0, backend)
		a := execute(t, prog, spmd.EngineCompiled)
		kept := globals(t, prog, a)
		done := make(chan error, 1)
		go func() {
			_, err := prog.ExecuteEngine(mpsim.SP2Config(prog.Grid.Size()), spmd.EngineCompiled)
			done <- err
		}()
		for running := true; running; {
			select {
			case err := <-done:
				if err != nil {
					t.Fatal(err)
				}
				running = false
			default:
			}
			for array, data := range globals(t, prog, a) {
				if _, err := spmd.Agree(array, data, kept[array], 0); err != nil {
					t.Fatalf("%s: an execution on the crew changed the last result's arrays: %v", backend, err)
				}
			}
		}
	}
}

// requireSameExecution is spmd.SameRun plus the kernel and nest
// counters, which only a run on the same engine can match.
func requireSameExecution(t *testing.T, prog *spmd.Program, name string, want, got *spmd.ExecResult) {
	t.Helper()
	if err := spmd.SameRun(prog, want, got); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if got.Kernels != want.Kernels || got.Nests != want.Nests {
		t.Fatalf("%s: %s, %s; a fresh crew's %s, %s", name, got.Kernels, got.Nests, want.Kernels, want.Nests)
	}
}

// globals copies every array of main out of res.
func globals(t *testing.T, prog *spmd.Program, res *spmd.ExecResult) map[string][]float64 {
	t.Helper()
	out := map[string][]float64{}
	for _, d := range prog.IR.Main().Decls {
		if d.Rank() == 0 {
			continue
		}
		data, _, _, err := res.Global(d.Name)
		if err != nil {
			t.Fatal(err)
		}
		out[d.Name] = data
	}
	return out
}
