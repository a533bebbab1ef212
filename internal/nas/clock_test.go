package nas

import (
	"testing"

	"dhpf/internal/mpsim"
	"dhpf/internal/spmd"
)

// TestClockRunIsTheDataRun pins the hand codes' two producers of one
// clock: a run without data charges every phase and message exactly as
// the run that computes the arrays, so ClockMultipart and ClockTranspose
// are RunMultipart's and RunTranspose's machine results bit for bit.
func TestClockRunIsTheDataRun(t *testing.T) {
	for _, bench := range []string{"sp", "bt"} {
		for _, n := range []int{12, 16} {
			for steps := 1; steps <= 2; steps++ {
				for _, p := range []int{4, 9, 16} {
					run, err := RunMultipart(bench, n, steps, p, mpsim.SP2Config(p))
					if err != nil {
						t.Fatal(err)
					}
					clock, err := ClockMultipart(bench, n, steps, p, mpsim.SP2Config(p))
					if err != nil {
						t.Fatal(err)
					}
					if err := spmd.SameMachine(run.Machine, clock); err != nil {
						t.Errorf("multipart %s %d³×%d on %d: %v", bench, n, steps, p, err)
					}
				}
				for _, p := range []int{2, 4, 8} {
					run, err := RunTranspose(bench, n, steps, p, mpsim.SP2Config(p))
					if err != nil {
						t.Fatal(err)
					}
					clock, err := ClockTranspose(bench, n, steps, p, mpsim.SP2Config(p))
					if err != nil {
						t.Fatal(err)
					}
					if err := spmd.SameMachine(run.Machine, clock); err != nil {
						t.Errorf("transpose %s %d³×%d on %d: %v", bench, n, steps, p, err)
					}
				}
			}
		}
	}
}
