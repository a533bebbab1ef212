package nas

import (
	"errors"
	"testing"

	"dhpf/internal/mpsim"
	"dhpf/internal/passes"
	"dhpf/internal/spmd"
)

// TestSPModDeadlocksUnderDefaults pins ROADMAP item 1b-i until it is
// fixed: SPMod — SP with its sweeps behind calls — verifies clean and
// cannot run.  In its fifth tag block every rank receives before anyone
// sends, two 2-cycles across the first grid dimension; the machine reports
// that one state on every backend and engine.  (The monolithic SPSource
// with the same sweeps runs; with availability analysis disabled it hangs
// in this shape one block earlier — 1b-ii, the codegen corpus's
// sp16-noavail.)  The fix replaces this test with SPMod against the serial
// reference.
func TestSPModDeadlocksUnderDefaults(t *testing.T) {
	const want = "deadlock: rank 0 <- rank 2 tag 40962 rhs[50]; rank 1 <- rank 3 tag 40963 rhs[50]; " +
		"rank 2 <- rank 0 tag 40960 rhs[150]; rank 3 <- rank 1 tag 40961 rhs[150]"
	for _, backend := range []string{passes.BackendMP, passes.BackendShm, passes.BackendHybrid} {
		opt := spmd.DefaultOptions()
		opt.Backend = backend
		prog, err := spmd.CompileSource(SPModSource(12, 1, 2, 2), nil, opt)
		if err != nil {
			t.Fatalf("compile (backend %s): %v", backend, err)
		}
		for _, engine := range []spmd.Engine{spmd.EngineInterp, spmd.EngineCompiled, spmd.EngineCodegen} {
			_, err := prog.ExecuteEngine(smallMachine(4), engine)
			if !errors.Is(err, mpsim.ErrDeadlock) || err.Error() != want {
				t.Errorf("%s/%v: %v\nwant: %s", backend, engine, err, want)
			}
		}
	}
}
