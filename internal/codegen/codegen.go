package codegen

// codegen.go holds the emission corpus: the programs whose kernels
// gencorpus pre-generates into internal/codegen/gen, which is the whole
// native tier.  A program becomes native by being appended here and
// regenerated with `go generate ./internal/codegen`; a unit of any other
// program runs on the in-process evaluator.

//go:generate go run ./gencorpus -o gen/kernels.go

import (
	"dhpf/internal/nas"
	"dhpf/internal/passes"
	"dhpf/internal/spmd"
)

// CorpusEntry is one program of the emission corpus.
type CorpusEntry struct {
	Name   string
	Source string
	Params map[string]int
	// Procs is the rank count the parity tests execute with (the grid
	// declared by Source must have this size).
	Procs int
	Opt   spmd.Options
}

// Corpus returns the emission corpus: the NAS benchmark programs at
// their standard benchmark sizes (the exact compiles BenchmarkExecute*
// runs, so the checked-in gen package accelerates them out of the box),
// ablation variants (disabled passes change computation partitions and
// therefore kernel shapes), backend/grain variants, small feature
// programs covering emission paths the NAS codes miss (conditionals,
// intrinsics, broadcast reads, a cross-shaped LOCALIZE guard), and SP/BT
// on 1×4 and 4×1 grids — same kernels as 2×2 (guards are runtime data),
// but halo boxes of a different shape on every rank.  gencorpus emits
// kernels for every entry; the parity tests execute every entry under
// all three tiers.  Entries are appended, never reordered: the fuzz
// target's seeds index this list.
func Corpus() []CorpusEntry {
	shm := spmd.DefaultOptions()
	shm.Backend = passes.BackendShm
	grain := spmd.DefaultOptions()
	grain.PipelineGrain = 4
	return []CorpusEntry{
		{Name: "sp16", Source: nas.SPSource(16, 1, 2, 2), Procs: 4, Opt: spmd.DefaultOptions()},
		{Name: "bt12", Source: nas.BTSource(12, 1, 2, 2), Procs: 4, Opt: spmd.DefaultOptions()},
		{Name: "lu16", Source: nas.LUSource(16, 1, 2, 2), Procs: 4, Opt: spmd.DefaultOptions()},
		{Name: "sp16-nolocalize", Source: nas.SPSource(16, 1, 2, 2), Procs: 4,
			Opt: spmd.DefaultOptions().WithDisabled(passes.PassLocalize)},
		{Name: "sp16-noavail", Source: nas.SPSource(16, 1, 2, 2), Procs: 4,
			Opt: spmd.DefaultOptions().WithDisabled(passes.PassAvailability)},
		{Name: "bt12-noloopdist", Source: nas.BTSource(12, 1, 2, 2), Procs: 4,
			Opt: spmd.DefaultOptions().WithDisabled(passes.PassLoopDist)},
		{Name: "sp16-shm", Source: nas.SPSource(16, 1, 2, 2), Procs: 4, Opt: shm},
		{Name: "lu16-grain4", Source: nas.LUSource(16, 1, 2, 2), Procs: 4, Opt: grain},
		{Name: "features-cond", Source: featCondSource, Procs: 4, Opt: spmd.DefaultOptions()},
		{Name: "features-intrin", Source: featIntrinSource, Procs: 4, Opt: spmd.DefaultOptions()},
		{Name: "features-broadcast", Source: featBroadcastSource, Procs: 4, Opt: spmd.DefaultOptions()},
		{Name: "features-localize", Source: featLocalizeSource, Procs: 9, Opt: spmd.DefaultOptions()},
		{Name: "sp16-1x4", Source: nas.SPSource(16, 1, 1, 4), Procs: 4, Opt: spmd.DefaultOptions()},
		{Name: "sp16-4x1", Source: nas.SPSource(16, 1, 4, 1), Procs: 4, Opt: spmd.DefaultOptions()},
		{Name: "bt12-1x4", Source: nas.BTSource(12, 1, 1, 4), Procs: 4, Opt: spmd.DefaultOptions()},
		{Name: "bt12-4x1", Source: nas.BTSource(12, 1, 4, 1), Procs: 4, Opt: spmd.DefaultOptions()},
	}
}

// featCondSource exercises pIf lowering: nested conditionals with both
// arms, the "/=" operator, and guard boxes interacting with the
// conditional structure.
const featCondSource = `
program fcond
param N = 24
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align a with tm(d0, d1)
!hpf$ align b with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs
subroutine main()
  real a(0:N-1, 0:N-1)
  real b(0:N-1, 0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      if (i < N-4) then
        if (j /= 7) then
          a(i,j) = 0.25 * i + 0.5 * j
        else
          a(i,j) = -1.0
        endif
      else
        a(i,j) = 2.0
      endif
    enddo
  enddo
  do j = 1, N-2
    do i = 1, N-2
      b(i,j) = a(i-1,j) + a(i+1,j) + a(i,j-1) + a(i,j+1)
    enddo
  enddo
end
`

// featIntrinSource covers every canonical intrinsic the extractor
// admits, both unary and binary arities, plus scalar assignments
// inside a parallel loop.
const featIntrinSource = `
program fintr
param N = 32
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
!hpf$ distribute b(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  real b(0:N-1)
  do i = 0, N-1
    a(i) = sin(0.1 * i) + cos(0.2 * i)
  enddo
  do i = 0, N-1
    b(i) = sqrt(abs(a(i))) + exp(0.01 * i) + log(2.0 + i)
  enddo
  do i = 0, N-1
    a(i) = min(a(i), b(i)) + max(a(i), b(i)) + mod(1.0 * i, 7.0) + pow(1.01, 1.0 * i)
  enddo
end
`

// featBroadcastSource covers replicated reads of a remote element
// (broadcast communication at the loop root) feeding a kernel body.
const featBroadcastSource = `
program fbc
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
!hpf$ distribute b(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  real b(0:N-1)
  do i = 0, N-1
    a(i) = 0.5 * i + 1.0
  enddo
  do i = 0, N-1
    b(i) = a(9) * i + a(2)
  enddo
end
`

// featLocalizeSource covers union-of-boxes guards: rho is LOCALIZE'd
// and read at ±1 in both distributed dimensions, so on the 3×3 grid the
// interior rank computes rho over its own block plus four halo faces —
// a cross, which no single box describes.
const featLocalizeSource = `
program floc
param N = 18
!hpf$ processors procs(3, 3)
!hpf$ template tm(N, N)
!hpf$ align u with tm(d0, d1)
!hpf$ align v with tm(d0, d1)
!hpf$ align rho with tm(d0, d1)
!hpf$ distribute tm(BLOCK, BLOCK) onto procs
subroutine main()
  real u(0:N-1, 0:N-1)
  real v(0:N-1, 0:N-1)
  real rho(0:N-1, 0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      u(i,j) = 1.0 + 0.01 * i + 0.02 * j
      v(i,j) = 0.0
    enddo
  enddo
  !hpf$ independent, localize(rho)
  do onetrip = 1, 1
    do j = 0, N-1
      do i = 0, N-1
        rho(i,j) = 1.0 / u(i,j)
      enddo
    enddo
    do j = 1, N-2
      do i = 1, N-2
        v(i,j) = rho(i+1,j) + rho(i-1,j) + rho(i,j+1) + rho(i,j-1) - 4.0 * rho(i,j)
      enddo
    enddo
  enddo
end
`
