// Quickstart: compile a 2-D Jacobi stencil from mini-HPF source, run it
// on a simulated 4-processor machine, verify the result against the
// sequential reference, and print the compiler's decisions and the
// performance counters.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"dhpf"
)

const src = `
program jacobi
param N = 64
param P = 4

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
      a(i,j) = sin(0.1*i) + 0.05*j
      b(i,j) = 0.0
    enddo
  enddo
  do t = 1, 5
    do j = 1, N-2
      do i = 1, N-2
        b(i,j) = 0.25*(a(i-1,j) + a(i+1,j) + a(i,j-1) + a(i,j+1))
      enddo
    enddo
    do j = 1, N-2
      do i = 1, N-2
        a(i,j) = b(i,j)
      enddo
    enddo
  enddo
end
`

func run(w io.Writer) error {
	prog, err := dhpf.Compile(src, nil, dhpf.DefaultOptions())
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "=== compiler report ===")
	fmt.Fprint(w, prog.Report())

	res, err := prog.Run(dhpf.SP2Machine(prog.Ranks()))
	if err != nil {
		return err
	}

	// Verify against the sequential reference semantics, bit for bit.
	ref, err := dhpf.RunSerial(src, nil)
	if err != nil {
		return err
	}
	worst, err := res.AgreesWithSerial(ref, 0, "a")

	fmt.Fprintln(w, "\n=== execution ===")
	fmt.Fprintf(w, "ranks:            %d\n", prog.Ranks())
	fmt.Fprintf(w, "virtual time:     %.6f s\n", res.Seconds())
	fmt.Fprintf(w, "messages:         %d (%d bytes)\n", res.Messages(), res.Bytes())
	fmt.Fprintf(w, "max relative error vs serial: %g\n", worst)
	if err != nil {
		return fmt.Errorf("verification FAILED: %w", err)
	}
	fmt.Fprintln(w, "verification OK: compiled SPMD code matches the serial reference")
	return nil
}

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
