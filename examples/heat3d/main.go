// Heat3d: a 3-D diffusion solver exercising the paper's §4 optimizations
// — a LOCALIZE'd conductivity field (partial replication of boundary
// computation) and a privatizable NEW line temporary — and showing, by
// compiling with and without LOCALIZE, how partial replication trades a
// single u-halo exchange for per-array boundary traffic.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"dhpf"
)

const src = `
program heat3d
param N = 32
param P1 = 2
param P2 = 2

!hpf$ processors procs(P1, P2)
!hpf$ template tm(N, N, N)
!hpf$ align t with tm(d0, d1, d2)
!hpf$ align cond with tm(d0, d1, d2)
!hpf$ align flux with tm(d0, d1, d2)
!hpf$ distribute tm(*, BLOCK, BLOCK) onto procs

subroutine main()
  real t(0:N-1, 0:N-1, 0:N-1)
  real cond(0:N-1, 0:N-1, 0:N-1)
  real flux(0:N-1, 0:N-1, 0:N-1)
  real line(0:N-1)

  do k = 0, N-1
    do j = 0, N-1
      do i = 0, N-1
        t(i,j,k) = 20.0 + 0.5*i + 0.25*j + 0.125*k
        cond(i,j,k) = 0.0
        flux(i,j,k) = 0.0
      enddo
    enddo
  enddo

  do step = 1, 3
    ! Conductivity depends on temperature; its boundary values are
    ! partially replicated (LOCALIZE) so the flux stencil below needs no
    ! cond communication at all.
    !hpf$ independent, localize(cond)
    do onetrip = 1, 1
      do k = 0, N-1
        do j = 0, N-1
          do i = 0, N-1
            cond(i,j,k) = 1.0 / (1.0 + 0.01*t(i,j,k))
          enddo
        enddo
      enddo
      do k = 1, N-2
        do j = 1, N-2
          do i = 1, N-2
            flux(i,j,k) = cond(i,j+1,k)*(t(i,j+1,k) - t(i,j,k)) + cond(i,j-1,k)*(t(i,j-1,k) - t(i,j,k)) + cond(i,j,k+1)*(t(i,j,k+1) - t(i,j,k)) + cond(i,j,k-1)*(t(i,j,k-1) - t(i,j,k)) + cond(i+1,j,k)*(t(i+1,j,k) - t(i,j,k)) + cond(i-1,j,k)*(t(i-1,j,k) - t(i,j,k))
          enddo
        enddo
      enddo
    enddo

    ! A privatizable line temporary (NEW), as in the paper's lhsy.
    do k = 1, N-2
      !hpf$ independent, new(line)
      do i = 1, N-2
        do j = 0, N-1
          line(j) = 0.5 * flux(i,j,k)
        enddo
        do j = 1, N-2
          t(i,j,k) = t(i,j,k) + 0.05*(line(j-1) + line(j+1))
        enddo
      enddo
    enddo
  enddo
end
`

func run(w io.Writer) error {
	variant := func(localize bool) error {
		opt := dhpf.DefaultOptions()
		if !localize {
			// Ablate by dropping the pass from the pipeline.
			opt = opt.WithDisabled(dhpf.PassLocalize)
		}
		prog, err := dhpf.Compile(src, nil, opt)
		if err != nil {
			return err
		}
		res, err := prog.Run(dhpf.SP2Machine(prog.Ranks()))
		if err != nil {
			return err
		}
		ref, err := dhpf.RunSerial(src, nil)
		if err != nil {
			return err
		}
		worst, err := res.AgreesWithSerial(ref, 0, "t")
		fmt.Fprintf(w, "LOCALIZE=%-5v  time %.6fs  messages %4d  bytes %8d  max rel err %g\n",
			localize, res.Seconds(), res.Messages(), res.Bytes(), worst)
		return err
	}
	fmt.Fprintln(w, "heat3d on 4 simulated ranks (2x2 over y,z), 3 time steps:")
	if err := variant(true); err != nil {
		return err
	}
	if err := variant(false); err != nil {
		return err
	}
	fmt.Fprintln(w, "\nWith LOCALIZE the conductivity boundaries are computed redundantly")
	fmt.Fprintln(w, "on both neighbours (one t-halo fetch); without it every cond")
	fmt.Fprintln(w, "boundary plane is communicated separately each step.")
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
