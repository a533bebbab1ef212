package main

import (
	"fmt"
	"math"

	"dhpf/internal/parser"
	"dhpf/internal/passes"
	"dhpf/internal/spmd"
)

// The references of this file never come from the code path being
// timed: a sequential interpretation of the source, the hand-written
// message-passing codes, the other execution engines, and the static
// cost oracle each stand against the compiled program's execution.

// tolerance is the largest accepted |got − want| ÷ max(1, |want|).
const tolerance = 1e-12

// maxRelErr is the worst relative error of got against want.
func maxRelErr(got, want []float64) float64 {
	if len(got) != len(want) {
		return math.Inf(1)
	}
	worst := 0.0
	for i := range want {
		rel := math.Abs(got[i]-want[i]) / math.Max(1, math.Abs(want[i]))
		if math.IsNaN(rel) {
			return math.Inf(1)
		}
		worst = math.Max(worst, rel)
	}
	return worst
}

// serialRun interprets the source sequentially, ignoring every
// directive.
func serialRun(src string, params map[string]int) (*spmd.SerialResult, error) {
	prog, err := parser.Parse(src)
	if err != nil {
		return nil, err
	}
	return spmd.RunSerial(prog, params)
}

// checkSerial compares the named arrays of main against the serial run.
func checkSerial(res *spmd.ExecResult, ser *spmd.SerialResult, arrays []string) error {
	for _, name := range arrays {
		want, _, _, err := ser.Array(name)
		if err != nil {
			return err
		}
		got, _, _, err := res.Global(name)
		if err != nil {
			return err
		}
		if e := maxRelErr(got, want); e > tolerance {
			return fmt.Errorf("array %s differs from the serial run: max rel err %g", name, e)
		}
	}
	return nil
}

// checkSameArrays requires two executions to agree bit for bit on the
// named arrays of main.
func checkSameArrays(what string, a, b *spmd.ExecResult, arrays []string) error {
	for _, name := range arrays {
		x, _, _, err := a.Global(name)
		if err != nil {
			return err
		}
		y, _, _, err := b.Global(name)
		if err != nil {
			return err
		}
		if len(x) != len(y) {
			return fmt.Errorf("%s: array %s has %d vs %d elements", what, name, len(x), len(y))
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return fmt.Errorf("%s: array %s element %d: %v vs %v", what, name, i, x[i], y[i])
			}
		}
	}
	return nil
}

// checkSameBits requires two executions of one program on one substrate
// to agree bit for bit on every array of main, every rank clock and
// every traffic counter.
func checkSameBits(what string, a, b *spmd.ExecResult, arrays []string) error {
	if err := checkSameArrays(what, a, b, arrays); err != nil {
		return err
	}
	ma, mb := a.Machine, b.Machine
	for r := range ma.RankTime {
		if math.Float64bits(ma.RankTime[r]) != math.Float64bits(mb.RankTime[r]) {
			return fmt.Errorf("%s: rank %d clock %v vs %v", what, r, ma.RankTime[r], mb.RankTime[r])
		}
		if ma.SentMsgs[r] != mb.SentMsgs[r] || ma.SentBytes[r] != mb.SentBytes[r] || ma.RecvMsgs[r] != mb.RecvMsgs[r] {
			return fmt.Errorf("%s: rank %d traffic differs", what, r)
		}
	}
	if (a.Shm == nil) != (b.Shm == nil) {
		return fmt.Errorf("%s: one run has shared-memory counters, the other none", what)
	}
	if a.Shm != nil {
		if a.Shm.TotalPulls() != b.Shm.TotalPulls() || a.Shm.TotalPulledBytes() != b.Shm.TotalPulledBytes() || a.Shm.Barriers != b.Shm.Barriers {
			return fmt.Errorf("%s: pull or barrier counters differ", what)
		}
	}
	return nil
}

// checkPredict requires the static cost oracle to equal the measured
// flops, messages, bytes, pulls and barriers.
func checkPredict(p *spmd.Program, res *spmd.ExecResult) error {
	cost, err := p.PredictCost()
	if err != nil {
		return err
	}
	if !cost.Exact {
		return fmt.Errorf("analysis.Predict is inexact on an affine program")
	}
	m := res.Machine
	for r := 0; r < m.Procs; r++ {
		if cost.Flops[r] != m.RankFlops[r] || cost.SentMsgs[r] != m.SentMsgs[r] ||
			cost.SentBytes[r] != m.SentBytes[r] || cost.RecvMsgs[r] != m.RecvMsgs[r] {
			return fmt.Errorf("rank %d: predicted counters differ from measured ones", r)
		}
	}
	if b, _ := passes.ParseBackend(p.Opt.Backend); b == passes.BackendMP {
		return nil
	}
	if res.Shm == nil {
		return fmt.Errorf("shared-memory run returned no counters")
	}
	for t := 0; t < res.Shm.Threads; t++ {
		if cost.Pulls[t] != res.Shm.Pulls[t] || cost.PulledBytes[t] != res.Shm.PulledBytes[t] {
			return fmt.Errorf("thread %d: predicted pulls differ from measured ones", t)
		}
	}
	if cost.Barriers != res.Shm.Barriers {
		return fmt.Errorf("barriers: predicted %d, measured %d", cost.Barriers, res.Shm.Barriers)
	}
	return nil
}
