package analysis_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dhpf/internal/parser"
	"dhpf/internal/spmd"
)

// fuzzCorpus seeds the fuzzer with every shipped mini-HPF program.
func fuzzCorpus(f *testing.F) {
	f.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.hpf"))
	if err != nil || len(paths) == 0 {
		f.Fatalf("no corpus: %v", err)
	}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
}

// FuzzAnalyze: any mutation of the corpus must either fail to parse,
// fail to compile with a diagnostic, or analyze — never panic.  For
// every mutant that compiles, the analyzer must be deterministic (two
// fresh runs over the same program render byte-identical reports) and
// the cost oracle must never produce a negative counter: the
// guarantees every surface (-analyze, /v1/analyze, the tuner's static
// screen) is built on.
func FuzzAnalyze(f *testing.F) {
	fuzzCorpus(f)
	// One array, two subscript counts: once "iset: set rank mismatch"
	// out of the dataflow pass, now a bind diagnostic.
	f.Add(`
program ranks
param N = 16
!hpf$ processors procs(4)
!hpf$ template tm(N)
!hpf$ align b with tm(d0)
!hpf$ distribute tm(BLOCK) onto procs
subroutine main()
  real b(0:N-1)
  do i = 0, N-1
    b(i) = a(i,0)
    a(i) = 1.0
  enddo
end
`)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<15 {
			t.Skip("oversized input")
		}
		if _, err := parser.Parse(src); err != nil {
			return // parse failure is an accepted outcome
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		prog, err := spmd.CompileSourceCtx(ctx, src, nil, spmd.DefaultOptions())
		if err != nil {
			return // compile diagnostics are an accepted outcome
		}
		if prog.Grid.Size() > 32 {
			t.Skip("fuzzed grid too large to analyze cheaply")
		}
		res, err := prog.Analyze()
		if err != nil {
			return // malformed-input error, still no panic
		}
		// Determinism: a second analysis from freshly built inputs must
		// render the identical report (map iteration anywhere in the
		// walk would surface here).
		again, err := prog.Analyze()
		if err != nil {
			t.Fatalf("second analysis failed after first succeeded: %v", err)
		}
		if a, b := res.Text(), again.Text(); a != b {
			t.Fatalf("analysis not deterministic:\n--- first ---\n%s\n--- second ---\n%s", a, b)
		}
		cost, err := prog.PredictCost()
		if err != nil {
			return
		}
		for r, fl := range cost.Flops {
			if fl < 0 {
				t.Fatalf("negative flops on rank %d: %g", r, fl)
			}
		}
		for _, counters := range [][]int64{cost.SentMsgs, cost.SentBytes, cost.RecvMsgs, cost.Pulls, cost.PulledBytes} {
			for r, c := range counters {
				if c < 0 {
					t.Fatalf("negative counter on rank %d: %d", r, c)
				}
			}
		}
		if cost.Barriers < 0 {
			t.Fatalf("negative barrier count: %d", cost.Barriers)
		}
	})
}
