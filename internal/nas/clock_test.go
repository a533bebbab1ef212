package nas

import (
	"fmt"
	"math"
	"testing"

	"dhpf/internal/mpsim"
)

// sameClocks reports the first difference between two machine results in
// the makespan, any rank's clock, idle time or flops, or any rank's
// message and byte counts — floats compared as bits.
func sameClocks(a, b *mpsim.Result) error {
	if math.Float64bits(a.Time) != math.Float64bits(b.Time) {
		return fmt.Errorf("time %v vs %v", a.Time, b.Time)
	}
	for r := range a.RankTime {
		for _, f := range [][2]float64{{a.RankTime[r], b.RankTime[r]}, {a.RankIdle[r], b.RankIdle[r]}, {a.RankFlops[r], b.RankFlops[r]}} {
			if math.Float64bits(f[0]) != math.Float64bits(f[1]) {
				return fmt.Errorf("rank %d: clock, idle or flops %v vs %v", r, f[0], f[1])
			}
		}
		if a.SentMsgs[r] != b.SentMsgs[r] || a.SentBytes[r] != b.SentBytes[r] || a.RecvMsgs[r] != b.RecvMsgs[r] {
			return fmt.Errorf("rank %d: messages %d/%d/%d vs %d/%d/%d", r,
				a.SentMsgs[r], a.SentBytes[r], a.RecvMsgs[r], b.SentMsgs[r], b.SentBytes[r], b.RecvMsgs[r])
		}
	}
	return nil
}

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
					if err := sameClocks(run.Machine, clock); err != nil {
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
					if err := sameClocks(run.Machine, clock); err != nil {
						t.Errorf("transpose %s %d³×%d on %d: %v", bench, n, steps, p, err)
					}
				}
			}
		}
	}
}
