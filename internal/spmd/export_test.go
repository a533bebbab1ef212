package spmd

import (
	"dhpf/internal/iset"
	"dhpf/internal/mpsim"
	"dhpf/internal/passes"
	"dhpf/internal/sched"
)

// HoistRow is one program of hoistRows.
type HoistRow struct {
	Name, Src      string
	Hoisted, Bails int
}

// HoistRows is hoistRows, for the external tests of this package.
var HoistRows = hoistRows

// FreshFrameSrc is freshFrameSrc, for the external tests of this package.
const FreshFrameSrc = freshFrameSrc

// ProbeSrc is probeSrc, for the external tests of this package.
const ProbeSrc = probeSrc

// relower lowers each kernel unit of prog again and returns the builders.
func relower(prog *Program) []*kevalBuilder {
	var bs []*kevalBuilder
	for _, u := range prog.KernelUnits() {
		b := &kevalBuilder{u: u}
		b.loop(u.Root)
		bs = append(bs, b)
	}
	return bs
}

// Hoisted counts the subtrees prog's evaluators hoist to loop entries.
func Hoisted(prog *Program) (n int) {
	for _, b := range relower(prog) {
		n += b.hoisted
	}
	return n
}

// Opcodes returns the opcodes prog's evaluators contain, a bit each.
func Opcodes(prog *Program) (codes uint64) {
	for _, b := range relower(prog) {
		codes |= b.codes
	}
	return codes
}

// BailAlways breaks the array geometry of every kernel unit of prog, so
// each precheck bails and the walker interprets the invocation — the
// wholesale form of the decline path — until the returned function puts
// the geometry back.  The first stride goes negative, which no live
// array's is: a shifted bound could match an actual whose bounds differ
// from the unit's, and let it run.  (A unit touching no array cannot be
// made to bail; it keeps running.)
func BailAlways(prog *Program) (restore func()) {
	flip := func() {
		for _, u := range prog.KernelUnits() {
			for i := range u.Arrays {
				u.Arrays[i].Stride[0] = -1 - u.Arrays[i].Stride[0]
			}
		}
	}
	flip()
	return flip
}

// CheckPrechecks makes every precheck of prog repeat itself from the
// unit's activation state found afresh, as at the activation's first
// invocation; where the two pack different bounds or bail for different
// reasons the rank panics, so the execution fails.  checked counts the
// prechecks repeated so far; restore turns the check off.
func CheckPrechecks(prog *Program) (checked func() int64, restore func()) {
	ep := prog.enginePlanFor()
	ep.recheck = true
	ep.rechecked.Store(0)
	return ep.rechecked.Load, func() { ep.recheck = false }
}

// EmitFills returns, by statement id, how many times the derivation pass
// of one rank's node program built the statement's iteration set.
func EmitFills(prog *Program, rank int) []int {
	rows := prog.emitRows(rank)
	fills := make([]int, len(rows))
	for id, row := range rows {
		fills[id] = row.fills
	}
	return fills
}

// UseSchedule makes s the schedule of p, before anything builds one.
func UseSchedule(p *Program, s *sched.Schedule) { p.schedOnce.Do(func() { p.sched = s }) }

// ZeroThenPull executes p on the default engine, on a crew of its own,
// and gathers main's arrays as results did when they kept every rank's
// copy: each one from a zeroed array into which every rank's local box is
// pulled, in rank order.
func ZeroThenPull(p *Program, cfg mpsim.Config) (map[string][]float64, error) {
	backend, err := passes.ParseBackend(p.Opt.Backend)
	if err != nil {
		return nil, err
	}
	plan := p.enginePlanFor()
	c := p.newCrew(backend, cfg)
	if _, _, err := c.run(p.Schedule(), cfg, EngineCompiled, plan, plan.bindKernels(EngineCompiled)); err != nil {
		return nil, err
	}
	out := map[string][]float64{}
	for name, a0 := range c.ranks[0].mainFrame.arrays {
		g := &array{name: name, lo: a0.lo, hi: a0.hi, stride: a0.stride, data: make([]float64, len(a0.data))}
		l := p.Ctx.Bind.LayoutOf(name)
		if l == nil {
			copy(g.data, a0.data)
		} else {
			for r := range c.ranks {
				pullPayload(g, c.ranks[r].mainFrame.arrays[name], []iset.Box{l.LocalBox(r)})
			}
		}
		out[name] = g.data
	}
	return out, nil
}
