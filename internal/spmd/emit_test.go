package spmd

import (
	"strings"
	"testing"
)

const emitSrc = `
program em
param N = 32
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align a with tm(d0, d1)
!hpf$ align b with tm(d0, d1)
!hpf$ align f with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs

subroutine main()
  real a(0:N-1, 0:N-1)
  real b(0:N-1, 0:N-1)
  real f(0:N-1, 0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      a(i,j) = 0.01*i + 0.02*j
      b(i,j) = 0.0
      f(i,j) = 0.0
    enddo
  enddo
  do j = 1, N-2
    do i = 1, N-2
      b(i,j) = a(i,j-1) + a(i,j+1)
    enddo
  enddo
  do j = 1, N-4
    do i = 1, N-2
      f(i,j) = 0.08 / a(i,j)
      b(i,j+1) = b(i,j+1) - f(i,j)*b(i,j)
      b(i,j+2) = b(i,j+2) - 0.5*f(i,j)*b(i,j)
    enddo
  enddo
end
`

// probeSrc is a statement outside every loop, after one, whose ON_HOME
// term rank 0 owns and whose read rank 3 owns.
const probeSrc = `
program probe
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
!hpf$ distribute b(BLOCK) onto procs

subroutine main()
  real a(0:N-1)
  real b(0:N-1)
  do i = 0, N-1
    b(i) = i * 2.0 + 1.0
  enddo
  a(1) = b(14) + 2.0
end
`

// TestEmitTopLevelComm: the communication around a statement outside
// every loop is printed before and after it, as at a loop: rank 3 sends
// b(14) to rank 0, the one rank that runs the statement, and ranks 1 and
// 2 have nothing to do.
func TestEmitTopLevelComm(t *testing.T) {
	prog, err := CompileSource(probeSrc, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const event = "  ! read comm for b(14) (stmt 3)"
	for rank, want := range []string{
		event + ", vectorized at this level:\n  call mpi_irecv(b[14] <- rank 3, 8 bytes)\n  a(1) = (b(14) + 2)\n",
		event + ": nothing for this rank\n  a(1) = (b(14) + 2)\n",
		event + ": nothing for this rank\n  a(1) = (b(14) + 2)\n",
		event + ", vectorized at this level:\n  call mpi_isend(b[14] -> rank 0, 8 bytes)\n  a(1) = (b(14) + 2)\n",
	} {
		if out := prog.EmitNodeProgram(rank); !strings.Contains(out, want) {
			t.Errorf("rank %d: node program lacks\n%s\n%s", rank, want, out)
		}
	}
}

func TestEmitNodeProgram(t *testing.T) {
	prog, err := CompileSource(emitSrc, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := prog.EmitNodeProgram(1)
	for _, want := range []string{
		"SPMD node program for rank 1 of 4",
		"subroutine main()",
		"! owns [0:31, 8:15]",    // rank 1's block
		"mpi_isend", "mpi_irecv", // stencil halo exchange
		"coarse-grain pipelined wavefront on j", // the sweep
		"do j = max(1, ",                        // localized bounds
		"enddo",
		"end",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("emitted program missing %q\n%s", want, out)
		}
	}
}

func TestEmitDiffersPerRank(t *testing.T) {
	prog, err := CompileSource(emitSrc, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r0 := prog.EmitNodeProgram(0)
	r3 := prog.EmitNodeProgram(3)
	if r0 == r3 {
		t.Fatal("node programs for different ranks are identical")
	}
	// Rank 0 owns the low block, rank 3 the high block.
	if !strings.Contains(r0, "owns [0:31, 0:7]") {
		t.Errorf("rank 0 ownership comment wrong:\n%s", r0[:400])
	}
	if !strings.Contains(r3, "owns [0:31, 24:31]") {
		t.Errorf("rank 3 ownership comment wrong")
	}
}

func TestEmitInterproceduralGuard(t *testing.T) {
	src := `
program emc
param N = 16
!hpf$ processors procs(2, 2)
!hpf$ template tm(N, N, N)
!hpf$ align w with tm(d0, d1, d2)
!hpf$ distribute tm(*, BLOCK, BLOCK) onto procs

subroutine line(v, jj, kk)
  real v(0:N-1, 0:N-1, 0:N-1)
  do i = 0, N-1
    v(i, jj, kk) = v(i, jj, kk) * 2.0
  enddo
end

subroutine main()
  real w(0:N-1, 0:N-1, 0:N-1)
  do k = 0, N-1
    do j = 0, N-1
      do i = 0, N-1
        w(i,j,k) = 1.0*i + j + k
      enddo
    enddo
  enddo
  do k = 0, N-1
    do j = 0, N-1
      call line(w, j, k)
    enddo
  enddo
end
`
	prog, err := CompileSource(src, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	out := prog.EmitNodeProgram(0)
	if !strings.Contains(out, "call line(w, j, k)") {
		t.Errorf("call not emitted:\n%s", out)
	}
	if !strings.Contains(out, "subroutine line(v, jj, kk)") {
		t.Error("callee not emitted")
	}
}
