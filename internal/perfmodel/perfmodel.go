// Package perfmodel produces the paper's Tables 8.1/8.2 at Class A/B
// sizes on 2–32 processors for the three SP/BT parallelizations.
//
// The dhpf-compiled code is not modelled: its column is the compiled
// program's own clock, a dry run (spmd.Program.DryRun) of nas.SPSource
// or nas.BTSource at the class size — the schedule walked on the
// virtual machine with payload-free messages, so the clocks are
// Execute's without touching an array.  Two dry runs, of one and two
// time steps, fix the per-step cost, and DryRunDHPF extrapolates it
// exactly (see there).
//
// The hand-MPI multipartitioning and PGI-style transpose codes are
// hand-written Go, not compiled, so they stay analytic: a LogGP-style
// composition of the flop weights and message volumes the simulator
// charges, whose terms mirror their phase structure (face exchanges,
// pipelined wavefronts with fill time, full transposes).  At reduced
// sizes cmd/nasbench -measure runs all three on the simulator.
package perfmodel

import (
	"fmt"
	"math"
	"slices"

	"dhpf/internal/mpsim"
	"dhpf/internal/nas"
	"dhpf/internal/spmd"
)

// Input describes one analytic prediction of a hand-written code.
type Input struct {
	Bench string // "sp" or "bt"
	N     int    // grid points per dimension
	Steps int
	Procs int
	Cfg   mpsim.Config // cost model (Procs field ignored)
}

func (in Input) comp() float64 {
	// Both benchmarks carry NCOMP solution components; they differ in the
	// per-component work (BT's block coupling), which the flop weights
	// already encode.
	return nas.NCOMP
}

// msg returns the end-to-end time of one message of b bytes: per-side
// overheads, wire latency, and the payload paid on both ends (the wire
// transfer plus the pack/unpack copies both the simulator's executor and
// real codes perform).
func msg(cfg mpsim.Config, bytes float64) float64 {
	return cfg.SendOverhead + cfg.RecvOverhead + cfg.Latency + 2*bytes*cfg.GapPerByte
}

// baseFlops returns the total flops of one time step (all ranks), split
// into the perfectly-parallel portion and the per-sweep pivot work.
func baseFlops(in Input) (parallel float64, sweepPivots float64, w nas.FlopWeights) {
	w, err := nas.WeightsFor(in.Bench)
	if err != nil {
		panic(err)
	}
	n := float64(in.N)
	mult := in.comp()
	interior := math.Pow(n-4, 3)
	parallel = w.Rho*n*n*n + w.Stencil*interior*mult + w.Add*interior
	if in.Bench == "sp" {
		parallel += (w.Cv + w.Spd) * n * (n - 2) * n
	} else {
		parallel += 3 * math.Pow(n-2, 3) * w.Jac * mult * mult
	}
	// One sweep's pivot count: (n-4) pivots over an (n-2)×(n-blk…) ≈
	// (n-2)² line footprint; forward and backward have equal counts.
	sweepPivots = (n - 4) * (n - 2) * (n - 2)
	return parallel, sweepPivots, w
}

// PredictMultipart models the hand-MPI multipartitioning time per step.
func PredictMultipart(in Input) (float64, error) {
	q := int(math.Round(math.Sqrt(float64(in.Procs))))
	if q*q != in.Procs {
		return 0, fmt.Errorf("perfmodel: multipartitioning needs square procs, got %d", in.Procs)
	}
	par, pivots, w := baseFlops(in)
	cfg := in.Cfg
	n := float64(in.N)
	cell := n / float64(q)

	t := par / float64(in.Procs) * cfg.FlopTime

	// copy_faces: 6 coalesced messages of Q cells × 2 faces each.
	faceBytes := float64(q) * 2 * cell * cell * 8
	t += 6 * msg(cfg, faceBytes)

	// Per direction, each line *system* runs a forward and a backward
	// sweep: each rank computes its q cells (its 1/P share of the
	// pivots) and q−1 stage handoffs of 2 pivot planes ((c+1) values
	// forward, c values backward) add latency on the critical path.
	perPivotPts := pivots / float64(in.Procs)
	for dim := 0; dim < 3; dim++ {
		for _, sys := range nas.SweepSystems(in.Bench) {
			c := float64(sys.Comps())
			t += perPivotPts*c*w.Fwd*cfg.FlopTime + float64(q-1)*msg(cfg, 2*cell*cell*(c+1)*8)
			t += perPivotPts*c*w.Bwd*cfg.FlopTime + float64(q-1)*msg(cfg, 2*cell*cell*c*8)
		}
	}
	return t * float64(in.Steps), nil
}

// PredictTranspose models the PGI-style code: 1-D z distribution, local
// x/y sweeps, and two full transposes around the z solve.
func PredictTranspose(in Input) (float64, error) {
	p := in.Procs
	par, pivots, w := baseFlops(in)
	cfg := in.Cfg
	n := float64(in.N)
	mult := in.comp()

	// 1-D BLOCK over z: ceil-sized slabs leave the last rank short and
	// every other rank waiting — the dominant load imbalance of the
	// PGI strategy at the paper's processor counts (e.g. ⌈64/25⌉ = 3
	// planes vs a mean of 2.56).
	blk := math.Ceil(n / float64(p))
	imb := blk * float64(p) / n
	t := par / float64(p) * cfg.FlopTime * imb
	// Reciprocal shell (1-deep, z only).
	t += 2 * n * n * w.Rho * cfg.FlopTime
	// u halo (2 planes per neighbour).
	if p > 1 {
		t += 2 * msg(cfg, 2*n*n*8)
	}
	// All six sweeps compute locally (with the same slab imbalance).
	perPivotPts := pivots / float64(p)
	for _, sys := range nas.SweepSystems(in.Bench) {
		t += 3 * perPivotPts * float64(sys.Comps()) * (w.Fwd + w.Bwd) * cfg.FlopTime * imb
	}
	// Two transposes: forward ships u(+spd)+r, back ships r.  Each is an
	// all-to-all of (P−1) messages of n³/P² points per array.
	arrays := mult + 2 // u, spd, r components (SP); u + r components (BT)
	if in.Bench == "bt" {
		arrays = mult + 1
	}
	blockBytes := n * n / float64(p) * n / float64(p) * 8
	fwd := float64(p-1) * msg(cfg, blockBytes*arrays)
	back := float64(p-1) * msg(cfg, blockBytes*mult)
	t += fwd + back
	return t * float64(in.Steps), nil
}

// DryRunDHPF is the dHPF column: the compiled SP or BT code at n³ on the
// p1×p2 grid under cfg's costs (its Procs ignored), dry-run for one and
// two time steps.  Every step after the first walks the same schedule,
// so the second run's extra step is the per-step cost, and steps > 2
// extrapolate exactly: T(steps) = T(2) + (steps−2)·(T(2)−T(1)).  Each
// rank's idle time extrapolates the same way, and idleShare is the
// largest of them over T(steps).
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
	run := func(steps int) (*mpsim.Result, error) {
		prog, err := spmd.CompileSource(source(n, steps, p1, p2), nil, opt)
		var res *mpsim.Result
		if err == nil {
			_, res, err = prog.DryRun(cfg)
		}
		if err != nil {
			return nil, fmt.Errorf("perfmodel: %s %d³×%d on %dx%d: %w", bench, n, steps, p1, p2, err)
		}
		return res, nil
	}
	last, err := run(min(steps, 2))
	if err != nil {
		return 0, 0, err
	}
	secs, idle := last.Time, slices.Max(last.RankIdle)
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
	return secs, idle / secs, nil
}
