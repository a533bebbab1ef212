package sched

import (
	"fmt"
	"math/rand"
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

// TestMemoKey: every input of a plan is in its key — a different
// binding, depth, strip window or firing gets a different key — and equal
// inputs get the one memoized slice back.
func TestMemoKey(t *testing.T) {
	s, proc, reads, zero := planFor(t, stencilSrc)
	if len(reads) != 2 {
		t.Fatalf("read events = %d, want 2", len(reads))
	}
	// The j loop is where both reads were placed; its Pipe list is empty.
	ls := s.Proc(proc).Loops[proc.Body[0].(*ir.Loop)]
	placed := &ls.Reads
	if len(placed.Events) != 2 || len(ls.Pipe.Events) != 0 {
		t.Fatalf("placement: %d reads and %d pipelined events at the j loop, want 2 and 0", len(placed.Events), len(ls.Pipe.Events))
	}
	// Event lists New did not place get ids past its dense range.
	unplaced := func(n int, events ...*comm.Event) *Firing {
		return &Firing{ID: s.firings + n, Proc: proc, Events: events}
	}
	bound := func(j int) map[string]int {
		m := map[string]int{"j": j}
		for k, v := range zero.Bind {
			m[k] = v
		}
		return m
	}
	points := map[string]struct {
		f  *Firing
		at Point
	}{
		"zero":        {placed, zero},
		"one event":   {unplaced(0, reads[0]), zero},
		"other event": {unplaced(1, reads[1]), zero},
		"swapped":     {unplaced(2, reads[1], reads[0]), zero},
		"j=8":         {placed, Point{Bind: bound(8)}},
		"j=9":         {placed, Point{Bind: bound(9)}},
		"j=8 depth 1": {placed, Point{Bind: bound(8), Depth: 1}},
		"strip":       {placed, Point{Bind: zero.Bind, Strip: &Strip{Var: "i", Lo: 1, Hi: 8}}},
		"strip hi":    {placed, Point{Bind: zero.Bind, Strip: &Strip{Var: "i", Lo: 1, Hi: 9}}},
		"strip lo":    {placed, Point{Bind: zero.Bind, Strip: &Strip{Var: "i", Lo: 2, Hi: 9}}},
		"strip var":   {placed, Point{Bind: zero.Bind, Strip: &Strip{Var: "j", Lo: 2, Hi: 9}}},
		// Unbound is not bound to zero.
		"j=0": {placed, Point{Bind: bound(0)}},
		// Two firings of one loop with identical events.
		"same events as Pipe": {&Firing{ID: ls.Pipe.ID, Proc: proc, Events: reads}, zero},
	}
	var ks KeyScratch
	var m Memo
	seen := map[string]string{}
	for name, p := range points {
		key := string(s.planKey(&ks, p.f, p.at.Depth, p.at.Strip, s.slotted(p.at.Bind, new(binding))))
		if other, dup := seen[key]; dup {
			t.Errorf("%q and %q share the key %q", name, other, key)
		}
		seen[key] = name
		if again := string(s.planKey(new(KeyScratch), p.f, p.at.Depth, p.at.Strip, s.slotted(p.at.Bind, new(binding)))); again != key {
			t.Errorf("%q: key depends on the scratch: %q vs %q", name, key, again)
		}
		first, miss := s.Transfers(&m, p.f, p.at, &ks)
		second, again := s.Transfers(&m, p.f, p.at, new(KeyScratch))
		if len(first) == 0 || len(second) != len(first) || &first[0] != &second[0] {
			t.Errorf("%q: equal inputs did not return the memoized slice", name)
		}
		if !miss || again {
			t.Errorf("%q: first lookup miss = %v, second = %v; want true, false", name, miss, again)
		}
		// The memo's boxes are a fresh plan's at the same point.
		fresh := s.Plan(p.f.Proc, p.f.Events, p.at)
		if len(fresh) != len(first) {
			t.Errorf("%q: memoized %d transfers, a fresh plan has %d", name, len(first), len(fresh))
			continue
		}
		for i, tr := range first {
			want := fresh[i]
			if tr.Array != want.Array || tr.From != want.From || tr.To != want.To ||
				tr.Elems != want.Data.Card() || fmt.Sprint(tr.Boxes) != fmt.Sprint(want.Data.Boxes()) {
				t.Errorf("%q: memoized %s %d->%d, %d elements %v; a fresh plan has %s %d->%d, %d elements %v", name,
					tr.Array, tr.From, tr.To, tr.Elems, tr.Boxes, want.Array, want.From, want.To, want.Data.Card(), want.Data.Boxes())
			}
		}
	}
	// The strip window really restricts the plan it keys.
	full, _ := s.Transfers(&m, placed, zero, &ks)
	strip, _ := s.Transfers(&m, placed, points["strip"].at, &ks)
	if full[0].Elems != 30 || strip[0].Elems != 8 {
		t.Errorf("full column %d elements, strip window %d; want 30 and 8", full[0].Elems, strip[0].Elems)
	}
}

// TestMemoKeyProperty: over random firings, depths, strips and bindings —
// drawn from ranges small enough that equal draws recur, with names that
// are prefixes of each other — two keys are equal exactly when every
// field is.
func TestMemoKeyProperty(t *testing.T) {
	s := &Schedule{names: []string{"i", "i1", "n", "x", "x1"}}
	rng := rand.New(rand.NewSource(17))
	var ks KeyScratch
	byKey, byFields := map[string]string{}, map[string]string{}
	for n := 0; n < 20000; n++ {
		f := &Firing{ID: rng.Intn(3) * 127}
		at := Point{Bind: map[string]int{}, Depth: rng.Intn(3) * 5}
		if rng.Intn(2) == 0 {
			at.Strip = &Strip{Var: s.names[rng.Intn(2)], Lo: rng.Intn(2) - 1, Hi: rng.Intn(2) * 64}
		}
		for _, name := range s.names {
			if rng.Intn(2) == 0 {
				at.Bind[name] = rng.Intn(3)*64 - 64
			}
		}
		fields := fmt.Sprintf("%d %d %v %v", f.ID, at.Depth, at.Strip, at.Bind)
		key := string(s.planKey(&ks, f, at.Depth, at.Strip, s.slotted(at.Bind, new(binding))))
		if other, ok := byKey[key]; ok && other != fields {
			t.Fatalf("key %q stands for both %s and %s", key, other, fields)
		}
		if other, ok := byFields[fields]; ok && other != key {
			t.Fatalf("%s has the keys %q and %q", fields, other, key)
		}
		byKey[key], byFields[fields] = fields, key
	}
	if len(byKey) < 1000 || len(byKey) > 15000 {
		t.Errorf("%d distinct keys in 20000 draws: the ranges no longer exercise both directions", len(byKey))
	}
}

// TestMemoKeyProcedures: two procedures whose names are prefixes of each
// other ("x1" at depth 0 against "x" at depth 10 was one text in the old
// rendered key) get distinct plan keys and distinct activations.
func TestMemoKeyProcedures(t *testing.T) {
	s, _ := schedFor(t, prefixProcsSrc)
	params := s.Ctx.Bind.Params
	x, x1 := s.prog.Proc("x"), s.prog.Proc("x1")
	fx := &s.Proc(x).Loops[x.Body[0].(*ir.Loop)].Reads
	fx1 := &s.Proc(x1).Loops[x1.Body[0].(*ir.Loop)].Reads
	if len(fx.Events) != 2 || len(fx1.Events) != 2 {
		t.Fatalf("placement: %d and %d reads, want 2 and 2", len(fx.Events), len(fx1.Events))
	}
	var ks KeyScratch
	var m Memo
	kx := string(s.planKey(&ks, fx, 10, nil, s.slotted(params, new(binding))))
	kx1 := string(s.planKey(&ks, fx1, 0, nil, s.slotted(params, new(binding))))
	if kx == kx1 {
		t.Errorf("x at depth 10 and x1 at depth 0 share the key %q", kx)
	}
	ix, missX := s.IterSets(&m, x, 1, params, &ks)
	ix1, missX1 := s.IterSets(&m, x1, 1, params, &ks)
	again, missAgain := s.IterSets(&m, x, 1, params, &ks)
	other, missOther := s.IterSets(&m, x, 2, params, &ks)
	if !missX || !missX1 || missAgain || !missOther {
		t.Errorf("activation misses %v %v %v %v, want true true false true", missX, missX1, missAgain, missOther)
	}
	// The two procedures number their statements apart, so sharing an
	// activation would show as the other's statement ids.
	for id := range ix {
		if _, shared := ix1[id]; shared {
			t.Errorf("x and x1 share an activation: statement %d in both", id)
		}
		if _, same := again[id]; !same {
			t.Errorf("second activation of x lost statement %d", id)
		}
		if fmt.Sprint(other[id]) == fmt.Sprint(ix[id]) {
			t.Errorf("ranks 1 and 2 share the iteration set %v of statement %d", ix[id], id)
		}
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
		for _, ls := range ps.Loops {
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
