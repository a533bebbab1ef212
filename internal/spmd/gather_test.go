package spmd_test

// A result holds one copy of main's arrays: rank 0's, completed at the
// join with the other ranks' local boxes (exec.go, gather).

import (
	"os"
	"path/filepath"
	"testing"

	"dhpf/internal/codegen"
	"dhpf/internal/mpsim"
	"dhpf/internal/passes"
	"dhpf/internal/spmd"
)

// unownedSrc aligns rho three cells before the template: rho(0:2) is in
// no rank's local box.  rho is LOCALIZEd, so rank 0 computes the rho(2)
// its v(3) reads into its own copy, and the global rho(2) must still read
// zero, as a gather of every rank's local box into a zeroed array gives.
const unownedSrc = `
program unowned
param N = 16
!hpf$ processors procs(4)
!hpf$ template tm(N)
!hpf$ align u with tm(d0)
!hpf$ align v with tm(d0)
!hpf$ align rho with tm(d0-3)
!hpf$ distribute tm(BLOCK) onto procs
subroutine main()
  real u(0:N-1)
  real v(0:N-1)
  real rho(0:N-1)
  do i = 0, N-1
    u(i) = 1.0 + 0.01 * i
  enddo
  !hpf$ independent, localize(rho)
  do onetrip = 1, 1
    do i = 0, N-1
      rho(i) = 1.0 / u(i)
    enddo
    do i = 3, N-2
      v(i) = rho(i+1) + rho(i-1) - 2.0 * rho(i)
    enddo
  enddo
end
`

// TestGlobalIsTheOwnersCopy: Global returns, bit for bit, what gathering
// every rank's copy into a zeroed array returned — on the codegen corpus,
// the shipped examples and a layout that leaves elements unowned, on
// every backend.  The gather is the join's, the same under every engine.
func TestGlobalIsTheOwnersCopy(t *testing.T) {
	type program struct {
		name, src string
		opt       spmd.Options
	}
	var progs []program
	for _, e := range codegen.Corpus() {
		if e.Name == "sp16-noavail" {
			continue // deadlocks (ROADMAP 1b-ii): no result to gather
		}
		progs = append(progs, program{e.Name, e.Source, e.Opt})
	}
	files, err := filepath.Glob("../../testdata/*.hpf")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata files found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, program{filepath.Base(f), string(src), spmd.DefaultOptions()})
	}
	progs = append(progs, program{"unowned", unownedSrc, spmd.DefaultOptions()})

	for _, p := range progs {
		for _, backend := range []string{passes.BackendMP, passes.BackendShm, passes.BackendHybrid} {
			name := p.name + " on " + backend
			opt := p.opt
			opt.Backend = backend
			prog, err := spmd.CompileSource(p.src, nil, opt)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cfg := mpsim.SP2Config(prog.Grid.Size())
			want, err := spmd.ZeroThenPull(prog, cfg)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := globals(t, prog, execute(t, prog, spmd.EngineCompiled))
			if len(got) != len(want) {
				t.Fatalf("%s: %d arrays gathered, want %d", name, len(got), len(want))
			}
			for array, w := range want {
				if _, err := spmd.Agree(array, got[array], w, 0); err != nil {
					t.Fatalf("%s: against zero-then-pull: %v", name, err)
				}
			}
		}
	}
}
