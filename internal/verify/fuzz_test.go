package verify_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"dhpf/internal/mpsim"
	"dhpf/internal/parser"
	"dhpf/internal/passes"
	"dhpf/internal/spmd"
	"dhpf/internal/verify"
)

// corpus returns every shipped mini-HPF program.
func corpus(t testing.TB) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "*.hpf"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no corpus: %v", err)
	}
	out := map[string]string{}
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = string(src)
	}
	return out
}

// FuzzCompileVerify: any mutation of the corpus must either fail to
// parse, fail to compile with a diagnostic, or compile and verify —
// never panic and never produce a report that cannot render — and what
// the compile derived once must audit clean (cp.Context.Audit).  The
// in-pipeline verify pass is disabled so the explicit Verify call also
// exercises unsafe-but-compilable mutants.
func FuzzCompileVerify(f *testing.F) {
	for _, src := range corpus(f) {
		f.Add(src)
	}
	// A triangular nest: once a compiler panic (IterBox evaluating the
	// inner bound under the parameter binding), now a diagnostic.
	f.Add(`
program tri
param N = 16
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align a with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs
subroutine main()
  real a(0:N-1, 0:N-1)
  do i = 0, N-1
    do j = 0, i
      a(j,i) = 1.0
    enddo
  enddo
end
`)
	opt := spmd.DefaultOptions()
	opt.Disable = append(opt.Disable, passes.PassVerify)
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 1<<15 {
			t.Skip("oversized input")
		}
		if _, err := parser.Parse(src); err != nil {
			return // parse failure is an accepted outcome
		}
		// The deadline bounds pathological pipeline blowups (compilation
		// checks it at every pass boundary).
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		cc := &passes.CompileContext{Source: src, Opt: opt}
		if err := passes.RunCtx(ctx, cc); err != nil {
			return // compile diagnostics are an accepted outcome
		}
		if cc.Grid.Size() > 32 {
			t.Skip("fuzzed grid too large to verify cheaply")
		}
		// What the compiler derived once is a cache: ctx.Deps is the
		// dependences of every body as it stands, every table row its
		// from-scratch set.
		if err := cc.Ctx.Audit(); err != nil {
			t.Fatal(err)
		}
		rep, err := verify.Run(cc.VerifyInput())
		if err != nil {
			return // malformed-input error, still no panic
		}
		// Both renderings must succeed whatever the verdict.
		_ = rep.String()
		_ = rep.JSON()
	})
}

// TestVerifierCleanCorpusMatchesSerial closes the loop between the
// symbolic proof and the machine: every corpus program the verifier
// calls clean must also produce numerics identical to the serial
// reference on the message-passing simulator.  (A verifier that passed
// broken programs would be caught here; one that broke working
// programs is caught by TestCleanOnTestdata.)
func TestVerifierCleanCorpusMatchesSerial(t *testing.T) {
	cfg := mpsim.Config{
		SendOverhead: 1e-6, RecvOverhead: 1e-6,
		Latency: 10e-6, GapPerByte: 1e-8, FlopTime: 1e-8,
	}
	for name, src := range corpus(t) {
		t.Run(name, func(t *testing.T) {
			prog := compileSrc(t, src)
			rep := mustVerify(t, prog)
			if !rep.Clean() {
				t.Fatalf("corpus program not verifier-clean:\n%s", rep)
			}
			mcfg := cfg
			mcfg.Procs = prog.Grid.Size()
			res, err := prog.Execute(mcfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := spmd.RunSerial(parser.MustParse(src), nil)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := res.AgreesWithSerial(ref, 1e-10); err != nil {
				t.Fatal(err)
			}
		})
	}
}
