package analysis

import (
	"fmt"

	"dhpf/internal/ir"
	"dhpf/internal/mpsim"
	"dhpf/internal/sched"
	"dhpf/internal/shm"
)

// DryRun is Predict on the virtual machine: every rank runs its counting
// walk concurrently on the backend's machine, charges the flops it
// counted at exactly the points the executor flushes its own (before
// each Send, each Recv and each reduction, and at the end) and moves
// messages (mp) or rendezvous tokens (shm, hybrid) that carry no
// payload.  No array is allocated and no value computed, yet the
// machine's per-rank clocks and idle times are Execute's bit for bit:
// the flops are integers below 2⁵³, so they sum exactly in any order.
//
// The Cost is Predict's; the Result is the machine's.  A program whose
// ranks all end up waiting returns the error wrapping mpsim.ErrDeadlock
// that Execute returns, with the same text.  Like Predict, a condition
// on a computed scalar is walked with that scalar as zero (Cost.Exact
// false), and the clocks are then those of that walk.
func DryRun(s *sched.Schedule, backend string, cfg mpsim.Config) (*Cost, *mpsim.Result, error) {
	cost, groups, err := newCost(s, backend)
	if err != nil {
		return nil, nil, err
	}
	if cfg.Procs != cost.Ranks {
		return nil, nil, fmt.Errorf("analysis: machine has %d ranks, program wants %d", cfg.Procs, cost.Ranks)
	}
	ranks := make([]*dryRank, cfg.Procs)
	body := func(rk *mpsim.Rank, th *shm.Thread) {
		d := &dryRank{counter: counter{cost: cost, mp: th == nil, groups: groups, pure: map[*ir.Loop]bool{}}, rk: rk, th: th}
		ranks[rk.ID] = d
		d.w = sched.NewWalker(s, rk.ID, d)
		d.w.Run()
		d.flush()
	}
	var res *mpsim.Result
	if cost.Backend == "mp" {
		res, err = mpsim.NewMachine(cfg, mpsim.MessageCost(cfg)).Run(func(r *mpsim.Rank) { body(r, nil) })
	} else {
		res, _, err = shm.NewTeam(shm.FromMachine(cfg, groups)).Run(func(t *shm.Thread) { body(t.Rank, t) })
	}
	if _, ok := err.(*mpsim.RankPanic); ok {
		return nil, nil, fmt.Errorf("analysis: %w", err)
	}
	if err != nil {
		return nil, nil, err
	}
	for _, d := range ranks {
		d.done()
	}
	return cost, res, nil
}

// dryRank is one rank of a dry run: the counter plus the machine side of
// its plans.  flushed is the rank's flop count already charged to the
// clock; pubArray and pubElems are what its Drain waits to have pulled,
// for the deadlock report.
type dryRank struct {
	counter
	rk       *mpsim.Rank
	th       *shm.Thread
	flushed  float64
	pubArray string
	pubElems int
}

func (d *dryRank) flush() {
	if f := d.cost.Flops[d.rk.ID]; f > d.flushed {
		d.rk.Compute(f - d.flushed)
		d.flushed = f
	}
}

func (d *dryRank) ReduceCombine(reds []sched.Reduction, init []float64) {
	d.counter.ReduceCombine(reds, init)
	for _, r := range reds {
		d.flush()
		d.rk.AllReduce(r.Op, 0)
	}
}

func (d *dryRank) Send(plan []sched.Transfer, base int) {
	d.counter.Send(plan, base)
	d.flush()
	for i, tr := range plan {
		if tr.From != d.rk.ID {
			continue
		}
		if d.th != nil {
			d.th.Publish(tr.To, base+i, int(tr.Bytes()), nil)
			d.pubArray, d.pubElems = tr.Array, int(tr.Elems)
			continue
		}
		at := d.rk.PaySend(tr.To, base+i, int(tr.Bytes()))
		d.rk.Post(tr.To, base+i, mpsim.Message{At: at})
	}
}

func (d *dryRank) Recv(plan []sched.Transfer, base int) {
	d.counter.Recv(plan, base)
	d.flush()
	for i, tr := range plan {
		if tr.To != d.rk.ID {
			continue
		}
		d.rk.Holding(tr.Array, int(tr.Elems))
		if d.th != nil {
			d.th.Await(tr.From, base+i)
			d.th.Ack(tr.From, int(tr.Bytes()))
			continue
		}
		d.rk.Recv(tr.From, base+i)
	}
}

func (d *dryRank) Drain() {
	if d.th != nil {
		d.rk.Holding(d.pubArray, d.pubElems)
		d.th.Drain()
	}
}
