package sched

import (
	"testing"

	"dhpf/internal/comm"
	"dhpf/internal/cp"
	"dhpf/internal/hpf"
	"dhpf/internal/ir"
	"dhpf/internal/parser"
)

// schedFor compiles src as far as the communication events and returns
// its schedule (and through it the planner) with the analyses it placed.
func schedFor(t *testing.T, src string) (*Schedule, map[string]*comm.Analysis) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hpf.Bind(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := cp.NewContext(prog, b)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := cp.Select(ctx, cp.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	grid, err := ctx.Grid()
	if err != nil {
		t.Fatal(err)
	}
	analyses := map[string]*comm.Analysis{}
	for _, proc := range prog.Procs {
		analyses[proc.Name] = comm.Analyze(ctx, proc, sel)
	}
	return New(Input{IR: prog, Ctx: ctx, Sel: sel, Comm: analyses, Grid: grid}), analyses
}

// planFor is schedFor plus main, its live read events and the zero point.
func planFor(t *testing.T, src string) (*Schedule, *ir.Procedure, []*comm.Event, Point) {
	t.Helper()
	s, analyses := schedFor(t, src)
	proc := s.prog.Main()
	var reads []*comm.Event
	for _, e := range analyses[proc.Name].Live() {
		if e.Kind == comm.ReadComm {
			reads = append(reads, e)
		}
	}
	return s, proc, reads, Point{Bind: s.Ctx.Bind.Params}
}

const stencilDirs = `
program t
param N = 32
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align a with tm(d0, d1)
!hpf$ align b with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs
`

const stencilDecls = `
  real a(0:N-1, 0:N-1)
  real b(0:N-1, 0:N-1)
`

const stencilHead = stencilDirs + `
subroutine main()` + stencilDecls

const stencilLoop = `
  do j = 1, N-2
    do i = 1, N-2
      b(i,j) = a(i,j-1) + a(i,j+1)
    enddo
  enddo
end
`

const stencilSrc = stencilHead + stencilLoop

// prefixProcsSrc runs the stencil in two procedures, x and x1.
const prefixProcsSrc = stencilDirs + `
subroutine main()` + stencilDecls + `
  a(0,0) = 1.0
  call x(a, b)
  call x1(a, b)
end
subroutine x(a, b)` + stencilDecls + stencilLoop + `
subroutine x1(a, b)` + stencilDecls + stencilLoop

func TestStencilTransfersShape(t *testing.T) {
	pl, proc, reads, zero := planFor(t, stencilSrc)
	tr := pl.Plan(proc, reads, zero)
	// 4 ranks in a line, each interior rank exchanges one column with
	// each neighbour: transfers = 2*(P-1) = 6 after coalescing.
	if len(tr) != 6 {
		t.Fatalf("transfers = %d, want 6: %v", len(tr), tr)
	}
	for _, x := range tr {
		if x.From == x.To {
			t.Errorf("self transfer: %+v", x)
		}
		// The full boundary column is fetched for rows 1..N-2.
		if x.Data.Card() != 30 {
			t.Errorf("transfer %v carries %d elements, want 30", x, x.Data.Card())
		}
	}
}

func TestCoalescingMergesRefs(t *testing.T) {
	// Two reads of the same array at j-1 and j-2 must coalesce into one
	// message per neighbour pair carrying both columns.
	pl, proc, reads, zero := planFor(t, stencilHead+`
  do j = 2, N-2
    do i = 1, N-2
      b(i,j) = a(i,j-1) + a(i,j-2)
    enddo
  enddo
end
`)
	tr := pl.Plan(proc, reads, zero)
	// Selection aligns the statement with the reads (ON_HOME a(i,j-1)),
	// leaving one read column per downward-neighbour pair; both read
	// references coalesce into a single message per pair.
	if len(tr) != 3 {
		t.Fatalf("read transfers = %d, want 3: %v", len(tr), tr)
	}
	for _, x := range tr {
		if x.From != x.To-1 {
			t.Errorf("unexpected direction: %+v", x)
		}
		if x.Data.Card()%30 != 0 {
			t.Errorf("transfer carries %d elements, want a multiple of one 30-row column", x.Data.Card())
		}
	}
}

func TestLocalizeLeavesNoTransferForReciprocals(t *testing.T) {
	pl, proc, reads, zero := planFor(t, `
program bt_rhs
param N = 32
!hpf$ processors procs(2, 2)
!hpf$ template tm(N, N, N)
!hpf$ align rhs with tm(d0, d1, d2)
!hpf$ align rho_i with tm(d0, d1, d2)
!hpf$ align u with tm(d0, d1, d2)
!hpf$ distribute tm(*, BLOCK, BLOCK) onto procs

subroutine main()
  real rhs(0:N-1, 0:N-1, 0:N-1)
  real rho_i(0:N-1, 0:N-1, 0:N-1)
  real u(0:N-1, 0:N-1, 0:N-1)
  !hpf$ independent, localize(rho_i)
  do onetrip = 1, 1
    do k = 0, N-1
      do j = 0, N-1
        do i = 0, N-1
          rho_i(i,j,k) = 1.0 / u(i,j,k)
        enddo
      enddo
    enddo
    do k = 1, N-2
      do j = 1, N-2
        do i = 1, N-2
          rhs(i,j,k) = rho_i(i,j+1,k) - rho_i(i,j-1,k) + rho_i(i,j,k+1) - rho_i(i,j,k-1)
        enddo
      enddo
    enddo
  enddo
end
`)
	// Partial replication computed the boundary values locally, so the
	// plan of everything that is still live moves no rho_i.
	for _, x := range pl.Plan(proc, reads, zero) {
		if x.Array == "rho_i" {
			t.Fatalf("LOCALIZE left rho_i transfer: %v", x)
		}
	}
}

// formPlan evaluates fm, a closed form of s, for rank me at the point.
func formPlan(s *Schedule, fm *form, pt Point, me int) []Transfer {
	vals := make([]int, len(s.names))
	for name, v := range pt.Bind {
		if i := s.Slot(name); i >= 0 {
			vals[i] = v
		}
	}
	p := at{vals: vals, depth: pt.Depth}
	if pt.Strip != nil {
		strip := *pt.Strip
		strip.slot = s.Slot(strip.Var)
		p.strip = &strip
	}
	return fm.eval(&level{}, p, me)
}

// stencilPoints are points of the stencil's j loop firing, placed and
// unplaced: every input of a plan varies — events, their order, the
// binding, depth and strip window.
func stencilPoints(t *testing.T) (*Schedule, map[string]struct {
	f  *Firing
	at Point
}) {
	s, proc, reads, zero := planFor(t, stencilSrc)
	if len(reads) != 2 {
		t.Fatalf("read events = %d, want 2", len(reads))
	}
	// The j loop is where both reads were placed; its Pipe list is empty.
	ls := s.Proc(proc).Loop(proc.Body[0].(*ir.Loop))
	placed := &ls.Reads
	if len(placed.Events) != 2 || len(ls.Pipe.Events) != 0 {
		t.Fatalf("placement: %d reads and %d pipelined events at the j loop, want 2 and 0", len(placed.Events), len(ls.Pipe.Events))
	}
	unplaced := func(events ...*comm.Event) *Firing { return &Firing{ID: -1, Proc: proc, Events: events} }
	bound := func(j int) map[string]int {
		m := map[string]int{"j": j}
		for k, v := range zero.Bind {
			m[k] = v
		}
		return m
	}
	return s, map[string]struct {
		f  *Firing
		at Point
	}{
		"zero":        {placed, zero},
		"one event":   {unplaced(reads[0]), zero},
		"other event": {unplaced(reads[1]), zero},
		"swapped":     {unplaced(reads[1], reads[0]), zero},
		"j=8":         {placed, Point{Bind: bound(8)}},
		"j=8 depth 1": {placed, Point{Bind: bound(8), Depth: 1}},
		"j=0 depth 1": {placed, Point{Bind: bound(0), Depth: 1}},
		"strip":       {placed, Point{Bind: zero.Bind, Strip: &Strip{Var: "i", Lo: 1, Hi: 8}}},
		"strip lo":    {placed, Point{Bind: zero.Bind, Strip: &Strip{Var: "i", Lo: 2, Hi: 9}}},
		"strip var":   {placed, Point{Bind: zero.Bind, Strip: &Strip{Var: "j", Lo: 2, Hi: 9}}},
		"strip empty": {placed, Point{Bind: zero.Bind, Strip: &Strip{Var: "j", Lo: 9, Hi: 2}}},
	}
}

// TestFormIsThePlan: at every point, every rank's evaluation of the
// closed form is Plan's transfer list — arrays, ranks and order — with
// Plan's boxes where the rank takes part, and the strip window really
// restricts it.
func TestFormIsThePlan(t *testing.T) {
	s, points := stencilPoints(t)
	for name, p := range points {
		fm := s.derive(p.f, p.at.Depth, -1)
		for me := range s.Grid.Size() {
			if err := samePlan(formPlan(s, fm, p.at, me), s.Plan(p.f.Proc, p.f.Events, p.at), me); err != nil {
				t.Errorf("%q on rank %d: %v", name, me, err)
			}
		}
	}
	fm := s.derive(points["zero"].f, 0, -1)
	full, strip := formPlan(s, fm, points["zero"].at, 0), formPlan(s, fm, points["strip"].at, 0)
	if full[0].Elems != 30 || strip[0].Elems != 8 {
		t.Errorf("full column %d elements, strip window %d; want 30 and 8", full[0].Elems, strip[0].Elems)
	}
}

// TestCheckFormsCatchesAPerturbedBound: one derived bound moved by one
// — a rank's rows of the stencil's read starting a row late — is a plan
// Plan does not make, and the comparison CheckForms runs at every firing
// says so.
func TestCheckFormsCatchesAPerturbedBound(t *testing.T) {
	s, points := stencilPoints(t)
	p := points["j=8 depth 1"]
	fm := s.derive(p.f, p.at.Depth, -1)
	e := &fm.events[0]
	if e.fixed == nil {
		t.Fatal("the stencil's read reads fixed slots only, yet it was not fixed")
	}
	// Rank 1's data of the read starts a row late.
	stride := 1 + 2*len(e.vars) + 2*len(e.ref)
	e.fixed.boxes[stride+1+2*len(e.vars)]++
	caught := false
	for me := range s.Grid.Size() {
		caught = caught || samePlan(formPlan(s, fm, p.at, me), s.Plan(p.f.Proc, p.f.Events, p.at), me) != nil
	}
	if !caught {
		t.Error("a form whose row range starts a row late matches Plan on every rank")
	}
}

// TestFiringIDs: New numbers every placed list of every procedure, empty
// or not, densely and apart.
func TestFiringIDs(t *testing.T) {
	s, _ := schedFor(t, prefixProcsSrc)
	seen := map[int]*ir.Procedure{}
	note := func(proc *ir.Procedure, fs ...Firing) {
		for _, f := range fs {
			if other, dup := seen[f.ID]; dup || f.ID < 0 || f.ID >= s.firings || f.Proc != proc {
				t.Errorf("firing %d of %s (recorded for %v): duplicate of %v or outside [0, %d)", f.ID, proc.Name, f.Proc, other, s.firings)
			}
			seen[f.ID] = proc
		}
	}
	for proc, ps := range s.procs {
		for _, ls := range ps.own {
			note(proc, ls.Reads, ls.Writes, ls.Pipe)
		}
		for _, ss := range ps.Top {
			note(proc, ss.Reads, ss.Writes)
		}
	}
	// Two loops in each of x and x1, one top-level assignment in main.
	if len(seen) != s.firings || s.firings != 4*3+2 {
		t.Errorf("%d firings seen, %d numbered, want %d", len(seen), s.firings, 4*3+2)
	}
}
