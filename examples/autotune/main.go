// Autotune: search the SP mini-benchmark's configuration space — grid
// shapes, pipeline granularities, and the 1-D transpose alternative —
// ranking for the paper's Class A problem size (64³) by dry run while
// executing at a tractable source size, the tuner's two-level protocol.
// The paper's Table 8.1 has the compiled 2-D BLOCK code beating the
// PGI-style transpose code at 16 processors; the compiled program's own
// clock does not reproduce that ordering (EXPERIMENTS.md, "Known
// divergences" #4), and the example says which one it found.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"dhpf"
	"dhpf/internal/nas"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	const procs, n, steps = 16, 18, 1
	src := nas.SPSource(n, steps, 1, procs)

	res, err := dhpf.Tune(context.Background(), src, dhpf.TuneOptions{
		Bench:   "sp",
		N:       n,
		Steps:   steps,
		TargetN: 64, // rank for Class A, simulate at 18³
		Procs:   procs,
		Grains:  []int{4, 8},
		TopK:    4,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "=== auto-tuning SP at %d ranks (simulate %d³, rank for 64³) ===\n", procs, n)
	for _, e := range res.Entries {
		line := fmt.Sprintf("  #%d %-16s %-10s", e.Rank, e.Key, e.Status)
		if e.ScreenSeconds > 0 {
			line += fmt.Sprintf("  screened %.4gs", e.ScreenSeconds)
		}
		if e.SimSeconds > 0 {
			line += fmt.Sprintf("  simulated %.4gs", e.SimSeconds)
		}
		if e.Note != "" {
			line += "  (" + e.Note + ")"
		}
		fmt.Fprintln(w, line)
	}
	c := res.Counters
	fmt.Fprintf(w, "search: %d candidates screened in %dµs, %d simulated in %dms\n",
		c.Candidates, c.ScreenWallNS/1e3, c.FullEvals, c.FullWallNS/1e6)

	win := res.Winner
	fmt.Fprintf(w, "winner: %s (verified against serial reference: %v)\n", win.Key, win.Verified)
	if win.Scheme == "block" {
		fmt.Fprintln(w, "Table 8.1 ordering rediscovered: 2-D BLOCK beats 1-D transpose at 16 ranks")
	} else {
		fmt.Fprintln(w, "Table 8.1 ordering not reproduced: 1-D transpose beats 2-D BLOCK at 16 ranks")
	}
	return nil
}
