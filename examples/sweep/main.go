// Sweep: a bi-directional line sweep (forward elimination writing rows
// j+1/j+2, backward substitution reading them — the paper's Figure 5.1 /
// §7 pattern) compiled into a coarse-grain pipelined wavefront.  Prints
// the compiler report showing the §7 availability elimination and an
// ASCII space–time diagram showing the pipeline skew.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"dhpf"
)

const src = `
program sweep
param N = 48
param P = 6

!hpf$ processors procs(P)
!hpf$ template tm(N, N)
!hpf$ align v with tm(d0, d1)
!hpf$ align w with tm(d0, d1)
!hpf$ align f with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs

subroutine main()
  real v(0:N-1, 0:N-1)
  real w(0:N-1, 0:N-1)
  real f(0:N-1, 0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      v(i,j) = 1.0 + 0.01*i + 0.02*j
      w(i,j) = 0.5*i - 0.1*j
      f(i,j) = 0.0
    enddo
  enddo

  ! forward elimination: iteration j computes the pivot factor and
  ! updates rows j+1 and j+2 (the paper's Figure 5.1 structure)
  do j = 1, N-4
    do i = 1, N-2
      f(i,j) = 0.08 / v(i,j)
      w(i,j+1) = w(i,j+1) - f(i,j)*w(i,j)
      w(i,j+2) = w(i,j+2) - 0.5*f(i,j)*w(i,j)
    enddo
  enddo

  ! backward substitution
  do j = N-4, 1, -1
    do i = 1, N-2
      w(i,j) = w(i,j) - 0.06*w(i,j+1) - 0.03*w(i,j+2)
    enddo
  enddo
end
`

func run(w io.Writer) error {
	prog, err := dhpf.Compile(src, nil, dhpf.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "=== compiler report (note the ELIMINATED anti-pipeline read, §7) ===")
	fmt.Fprint(w, prog.Report())

	cfg := dhpf.SP2Machine(prog.Ranks())
	cfg.Trace = true
	res, err := prog.Run(cfg)
	if err != nil {
		return err
	}

	ref, err := dhpf.RunSerial(src, nil)
	if err != nil {
		return err
	}
	if _, err := res.AgreesWithSerial(ref, 0, "w"); err != nil {
		return fmt.Errorf("verification failed: %w", err)
	}
	fmt.Fprintln(w, "\nverification OK")

	fmt.Fprintln(w, "\n=== space-time diagram: forward then reverse pipeline ===")
	fmt.Fprint(w, res.SpaceTime("wavefront sweep, 6 ranks", 100))
	fmt.Fprintf(w, "\nvirtual time %.6fs, %d messages\n", res.Seconds(), res.Messages())
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
