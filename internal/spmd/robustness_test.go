package spmd

import (
	"os"
	"strings"
	"testing"

	"dhpf/internal/trace"
)

// TestExplicitBlockSize exercises BLOCK(n) end to end: an explicit block
// size that leaves trailing ranks with partial or empty blocks.
func TestExplicitBlockSize(t *testing.T) {
	src := `
program blk
param N = 20
param P = 4
!hpf$ processors procs(P)
!hpf$ distribute a(BLOCK(7)) onto procs
subroutine main()
  real a(0:N-1)
  do i = 0, N-1
    a(i) = 3.0*i
  enddo
  do i = 1, N-2
    a(i) = a(i-1) + a(i+1)
  enddo
end
`
	// Blocks of 7 over 20 elements: ranks own [0:6], [7:13], [14:19], ∅.
	compareWithSerial(t, src, 4, []string{"a"})
}

// TestMachineSizeMismatch: running on the wrong number of ranks fails
// cleanly instead of deadlocking.
func TestMachineSizeMismatch(t *testing.T) {
	src := `
program m
param N = 8
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  a(0) = 1.0
end
`
	prog, err := CompileSource(src, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Execute(testMachine(2)); err == nil {
		t.Fatal("expected rank-count mismatch error")
	}
}

// TestUndefinedCalleeRejected at compile time.
func TestUndefinedCalleeRejected(t *testing.T) {
	src := `
program u
param N = 8
!hpf$ processors procs(2)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  call nosuch(a)
end
`
	if _, err := CompileSource(src, nil, DefaultOptions()); err == nil {
		t.Fatal("expected undefined-procedure error")
	} else if !strings.Contains(err.Error(), "nosuch") {
		t.Errorf("error %q", err)
	}
}

// TestRecursionRejected: the call-graph ordering must reject cycles.
func TestRecursionRejected(t *testing.T) {
	src := `
program r
param N = 8
!hpf$ processors procs(2)
!hpf$ distribute a(BLOCK) onto procs
subroutine f(a)
  real a(0:N-1)
  call g(a)
end
subroutine g(a)
  real a(0:N-1)
  call f(a)
end
subroutine main()
  real a(0:N-1)
  call f(a)
end
`
	if _, err := CompileSource(src, nil, DefaultOptions()); err == nil {
		t.Fatal("expected recursion error")
	} else if !strings.Contains(err.Error(), "recursive") {
		t.Errorf("error %q", err)
	}
}

// TestZeroTripLoops: loops that never execute must not derail analysis
// or execution.
func TestZeroTripLoops(t *testing.T) {
	src := `
program z
param N = 8
!hpf$ processors procs(2)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  do i = 0, N-1
    a(i) = 1.0*i
  enddo
  do i = 5, 2
    a(i) = 99.0
  enddo
  do i = N, N-1
    a(0) = -1.0
  enddo
end
`
	compareWithSerial(t, src, 2, []string{"a"})
}

// TestConflictingFormalLayouts: binding one formal to two different
// layouts at different call sites is rejected (the paper's compiler
// would clone the procedure).
func TestConflictingFormalLayouts(t *testing.T) {
	src := `
program c
param N = 8
!hpf$ processors procs(2)
!hpf$ template t1(N)
!hpf$ template t2(N)
!hpf$ align a with t1(d0)
!hpf$ align b with t2(d0+1)
!hpf$ distribute t1(BLOCK) onto procs
!hpf$ distribute t2(BLOCK) onto procs
subroutine f(v)
  real v(0:N-1)
  do i = 0, N-1
    v(i) = 1.0
  enddo
end
subroutine main()
  real a(0:N-1)
  real b(0:N-2)
  call f(a)
  call f(b)
end
`
	if _, err := CompileSource(src, nil, DefaultOptions()); err == nil {
		t.Fatal("expected conflicting-layout error")
	} else if !strings.Contains(err.Error(), "conflicting") {
		t.Errorf("error %q", err)
	}
}

// TestSingleRankProgram: P=1 degenerates to serial with no messages.
func TestSingleRankProgram(t *testing.T) {
	src := `
program one
param N = 16
!hpf$ processors procs(1)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  do i = 0, N-1
    a(i) = 2.0*i
  enddo
  do i = 1, N-1
    a(i) = a(i) + a(i-1)
  enddo
end
`
	_, res := compareWithSerial(t, src, 1, []string{"a"})
	if res.Machine.TotalMessages() != 0 {
		t.Errorf("messages on 1 rank = %d", res.Machine.TotalMessages())
	}
}

// TestTraceEventsWellFormed: on every backend a traced run yields events
// on every rank, time-ordered and non-overlapping per rank (the
// space–time diagram invariant), with a compute share above zero.  The
// shared-memory backends once dropped Config.Trace and emitted nothing.
func TestTraceEventsWellFormed(t *testing.T) {
	inline := `
program tr
param N = 24
param P = 3
!hpf$ processors procs(P)
!hpf$ template tm(N, N)
!hpf$ align a with tm(d0, d1)
!hpf$ align b with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs
subroutine main()
  real a(0:N-1, 0:N-1)
  real b(0:N-1, 0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      a(i,j) = 0.1*i + 0.2*j
    enddo
  enddo
  do j = 1, N-2
    do i = 1, N-2
      b(i,j) = a(i,j-1) + a(i,j+1)
    enddo
  enddo
end
`
	stencil, err := os.ReadFile("../../testdata/stencil.hpf")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, src, backend string }{
		{"inline/mp", inline, "mp"},
		{"stencil/shm", string(stencil), "shm"},
		{"stencil/hybrid", string(stencil), "hybrid"},
	} {
		t.Run(c.name, func(t *testing.T) {
			prog := compileBackend(t, c.src, DefaultOptions(), c.backend)
			cfg := testMachine(prog.Grid.Size())
			cfg.Trace = true
			res, err := prog.Execute(cfg)
			if err != nil {
				t.Fatal(err)
			}
			last := make([]float64, cfg.Procs)
			seen := make([]bool, cfg.Procs)
			for _, e := range res.Machine.Events {
				if e.End < e.Start {
					t.Fatalf("event ends before it starts: %+v", e)
				}
				if e.Start+1e-15 < last[e.Rank] {
					t.Fatalf("rank %d events overlap: start %g before previous end %g", e.Rank, e.Start, last[e.Rank])
				}
				last[e.Rank], seen[e.Rank] = e.End, true
			}
			for r, ok := range seen {
				if !ok {
					t.Errorf("rank %d has no events", r)
				}
			}
			if st := trace.Summarize(res.Machine); st.MeanCompute <= 0 {
				t.Errorf("mean compute share %g, want > 0", st.MeanCompute)
			}
			cfg.Trace = false
			if res, err = prog.Execute(cfg); err != nil || len(res.Machine.Events) != 0 {
				t.Errorf("untraced run: %d events, err %v", len(res.Machine.Events), err)
			}
		})
	}
}

// TestRankPanicAbortsPeers: a rank that dies must take its machine down
// with it.  The last rank's second nest reads a(i,N), one column past the
// array; the third nest makes rank 2 wait for a halo from that dead rank.
// Every engine × backend must return the rank-3 error — its own panic,
// which aborts the machine before the rank returns, and not the deadlock
// its peers would otherwise be found in.
func TestRankPanicAbortsPeers(t *testing.T) {
	src := `
program oob
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(*, BLOCK) onto procs
!hpf$ distribute b(*, BLOCK) onto procs
subroutine main()
  real a(0:N-1, 0:N-1)
  real b(0:N-1, 0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      a(i,j) = 1.0*i + 2.0*j
    enddo
  enddo
  do j = 0, N-1
    do i = 0, N-1
      b(i,j) = a(i,j+1)
    enddo
  enddo
  do j = 0, N-2
    do i = 0, N-1
      a(i,j) = b(i,j+1)
    enddo
  enddo
end
`
	const want = "spmd: rank 3: spmd: a[0 16] out of bounds [[0 0]:[15 15]]"
	for _, backend := range []string{"mp", "shm", "hybrid"} {
		opt := DefaultOptions()
		opt.Backend = backend
		prog, err := CompileSource(src, nil, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range []Engine{EngineInterp, EngineCompiled, EngineCodegen} {
			_, err := prog.ExecuteEngine(testMachine(4), engine)
			if err == nil || err.Error() != want {
				t.Errorf("%s/%s: error %v, want %q", backend, engine, err, want)
			}
		}
	}
}
