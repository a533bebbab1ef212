// Package perfmodel produces the paper's Tables 8.1/8.2 at Class A/B
// sizes on 2–32 processors for the three SP/BT parallelizations.
//
// Nothing is modelled: every column is a clock of the virtual machine at
// the class size.  The dHPF column is a dry run (spmd.Program.DryRun) of
// the compiled nas.SPSource or nas.BTSource; the hand-MPI and PGI columns
// are nas.ClockMultipart and nas.ClockTranspose, the hand-written codes
// run without their arrays.  Each is run for one and two time steps, and
// one rule (extrapolate) carries the per-step cost to the class's steps.
package perfmodel

import (
	"fmt"
	"slices"

	"dhpf/internal/mpsim"
	"dhpf/internal/nas"
	"dhpf/internal/spmd"
)

// extrapolate is the tables' one rule.  run(s) is a code's machine
// result after s time steps; every step after the first runs the same
// schedule, so the second run's extra step is the per-step cost and
// steps > 2 extrapolate as T(steps) = T(2) + (steps−2)·(T(2)−T(1)).
// Each rank's idle time extrapolates the same way, and idle is the
// largest of them.
func extrapolate(steps int, run func(steps int) (*mpsim.Result, error)) (secs, idle float64, err error) {
	last, err := run(min(steps, 2))
	if err != nil {
		return 0, 0, err
	}
	secs, idle = last.Time, slices.Max(last.RankIdle)
	if steps > 2 {
		first, err := run(1)
		if err != nil {
			return 0, 0, err
		}
		k := float64(steps - 2)
		secs = last.Time + k*(last.Time-first.Time)
		idle = 0
		for r, i2 := range last.RankIdle {
			idle = max(idle, i2+k*(i2-first.RankIdle[r]))
		}
	}
	return secs, idle, nil
}

// DryRunDHPF is the dHPF column: the compiled SP or BT code at n³ on the
// p1×p2 grid under cfg's costs (its Procs ignored), dry-run and
// extrapolated to steps.  idleShare is the largest rank idle time over
// the makespan.
func DryRunDHPF(bench string, n, steps, p1, p2 int, cfg mpsim.Config, grain int) (secs, idleShare float64, err error) {
	source := nas.SPSource
	switch bench {
	case "sp":
	case "bt":
		source = nas.BTSource
	default:
		return 0, 0, fmt.Errorf("perfmodel: unknown bench %q", bench)
	}
	opt := spmd.DefaultOptions()
	opt.PipelineGrain = grain
	cfg.Procs = p1 * p2
	secs, idle, err := extrapolate(steps, func(steps int) (*mpsim.Result, error) {
		prog, err := spmd.CompileSource(source(n, steps, p1, p2), nil, opt)
		var res *mpsim.Result
		if err == nil {
			_, res, err = prog.DryRun(cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("perfmodel: %s %d³×%d on %dx%d: %w", bench, n, steps, p1, p2, err)
		}
		return res, nil
	})
	if err != nil {
		return 0, 0, err
	}
	return secs, idle / secs, nil
}

// clockHand is the hand-MPI column: the multipartitioned SP or BT code
// at n³ on procs ranks under cfg's costs, run without data
// (nas.ClockMultipart) and extrapolated to steps.
func clockHand(bench string, n, steps, procs int, cfg mpsim.Config) (float64, error) {
	secs, _, err := extrapolate(steps, func(steps int) (*mpsim.Result, error) {
		return nas.ClockMultipart(bench, n, steps, procs, cfg)
	})
	return secs, err
}

// clockPGI is the PGI column: the transpose-based SP or BT code at n³
// on procs ranks under cfg's costs, run without data
// (nas.ClockTranspose) and extrapolated to steps.
func clockPGI(bench string, n, steps, procs int, cfg mpsim.Config) (float64, error) {
	secs, _, err := extrapolate(steps, func(steps int) (*mpsim.Result, error) {
		return nas.ClockTranspose(bench, n, steps, procs, cfg)
	})
	return secs, err
}
