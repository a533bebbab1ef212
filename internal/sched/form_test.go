package sched

import (
	"fmt"
	"strings"
	"testing"

	"dhpf/internal/comm"
	"dhpf/internal/ir"
	"dhpf/internal/iset"
)

// TestBeyondInt32IsGeneral: a firing whose iteration bounds leave int32
// has no closed form — its boxes are kept as int32 — so derive makes it
// general, and the walker's plan of it is Plan's.
func TestBeyondInt32IsGeneral(t *testing.T) {
	s, _ := schedFor(t, strings.Replace(stencilSrc, "param N = 32", "param N = 4294967296", 1))
	proc := s.prog.Main()
	f := &s.Proc(proc).Loop(proc.Body[0].(*ir.Loop)).Reads
	if fm := s.derive(f, 0, -1); !fm.general {
		t.Fatal("a firing whose bounds leave int32 has a closed form")
	}
	zero := Point{Bind: s.Ctx.Bind.Params}
	for me := range s.Grid.Size() {
		if err := samePlan(new(level).general(s, f, zero, me), s.Plan(proc, f.Events, zero), me); err != nil {
			t.Errorf("rank %d: %v", me, err)
		}
	}
}

// TestSamePlanSaysWhy: each way a rank's plan can differ from Plan's is
// reported as what differs, and the walker's check panics with it.
func TestSamePlanSaysWhy(t *testing.T) {
	box := func(lo, hi int) iset.Box { return iset.Interval(lo, hi) }
	want := []comm.Transfer{
		{Array: "a", From: 0, To: 1, Data: iset.FromBox(box(0, 3))},
		{Array: "a", From: 1, To: 2, Data: iset.FromBox(box(4, 7))},
	}
	tr := func(from, to int, b ...iset.Box) Transfer {
		return Transfer{Array: "a", From: from, To: to, Boxes: b, Elems: int64(4 * len(b))}
	}
	for _, c := range []struct {
		plan []Transfer
		me   int
		why  string
	}{
		{[]Transfer{tr(0, 1, box(0, 3)), tr(1, 2, box(4, 7)), tr(2, 3)}, 0, "closed form plans 3 transfers, Plan 2"},
		{nil, 3, "closed form plans 0 transfers, Plan 2"},
		{[]Transfer{tr(0, 1, box(0, 3))}, 2, "a 1->2 among the rest"},
		{[]Transfer{tr(1, 0, box(0, 3))}, 0, "transfer 0: closed form a 1->0, Plan a 0->1"},
		{[]Transfer{tr(0, 1, box(1, 4))}, 0, "closed form 4 elements [[1:4]], Plan 4 [[0:3]]"},
	} {
		if err := samePlan(c.plan, want, c.me); err == nil || !strings.Contains(err.Error(), c.why) {
			t.Errorf("rank %d, plan %v: %v; want it to say %q", c.me, c.plan, err, c.why)
		}
	}
	if err := samePlan([]Transfer{tr(0, 1, box(0, 3))}, want, 0); err != nil {
		t.Errorf("a plan listing rank 0's transfers as Plan does: %v", err)
	}

	s, points := stencilPoints(t)
	p := points["zero"]
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "closed form is not Plan: firing") {
			t.Errorf("the walker's check of an empty plan of a firing that moves data: %v", r)
		}
	}()
	NewWalker(s, 0, nil).check(p.f, nil, 0, nil, evalFull)
}

// TestPlanStatsLine: the plans line names the general firings only when
// there are some, so a program with none prints as it always did.
func TestPlanStatsLine(t *testing.T) {
	for p, want := range map[PlanStats]string{
		{Firings: 3, Derived: 1}:             "plans: 3 firings, 1 forms derived",
		{Firings: 3, Derived: 1, General: 2}: "plans: 3 firings, 1 forms derived, 2 general",
	} {
		if got := p.String(); got != want {
			t.Errorf("%#v: %q, want %q", p, got, want)
		}
	}
}
