package sched

import (
	"testing"

	"dhpf/internal/comm"
	"dhpf/internal/cp"
	"dhpf/internal/hpf"
	"dhpf/internal/ir"
	"dhpf/internal/parser"
)

// planFor compiles src as far as the communication events of main and
// returns the planner, main, its live read events and the zero point.
func planFor(t *testing.T, src string) (*Planner, *ir.Procedure, []*comm.Event, Point) {
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
	proc := prog.Main()
	var reads []*comm.Event
	for _, e := range comm.Analyze(ctx, proc, sel, comm.DefaultOptions()).Live() {
		if e.Kind == comm.ReadComm {
			reads = append(reads, e)
		}
	}
	return &Planner{Ctx: ctx, Sel: sel, Grid: grid}, proc, reads, Point{Bind: b.Params}
}

const stencilHead = `
program t
param N = 32
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align a with tm(d0, d1)
!hpf$ align b with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs

subroutine main()
  real a(0:N-1, 0:N-1)
  real b(0:N-1, 0:N-1)
`

const stencilSrc = stencilHead + `
  do j = 1, N-2
    do i = 1, N-2
      b(i,j) = a(i,j-1) + a(i,j+1)
    enddo
  enddo
end
`

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
// binding, depth, strip window or event list gets a different key — and
// equal inputs get the one memoized slice back.
func TestMemoKey(t *testing.T) {
	pl, proc, reads, zero := planFor(t, stencilSrc)
	if len(reads) != 2 {
		t.Fatalf("read events = %d, want 2", len(reads))
	}
	bound := func(j int) map[string]int {
		m := map[string]int{"j": j}
		for k, v := range zero.Bind {
			m[k] = v
		}
		return m
	}
	points := map[string]struct {
		events []*comm.Event
		at     Point
	}{
		"zero":        {reads, zero},
		"one event":   {reads[:1], zero},
		"other event": {reads[1:], zero},
		"swapped":     {[]*comm.Event{reads[1], reads[0]}, zero},
		"j=8":         {reads, Point{Bind: bound(8)}},
		"j=9":         {reads, Point{Bind: bound(9)}},
		"j=8 depth 1": {reads, Point{Bind: bound(8), Depth: 1}},
		"strip":       {reads, Point{Bind: zero.Bind, Strip: &Strip{Var: "i", Lo: 1, Hi: 8}}},
		"strip hi":    {reads, Point{Bind: zero.Bind, Strip: &Strip{Var: "i", Lo: 1, Hi: 9}}},
		"strip lo":    {reads, Point{Bind: zero.Bind, Strip: &Strip{Var: "i", Lo: 2, Hi: 9}}},
		"strip var":   {reads, Point{Bind: zero.Bind, Strip: &Strip{Var: "j", Lo: 2, Hi: 9}}},
	}
	var ks KeyScratch
	seen := map[string]string{}
	for name, p := range points {
		key := ks.key(proc, p.events, p.at)
		if other, dup := seen[key]; dup {
			t.Errorf("%q and %q share the key %q", name, other, key)
		}
		seen[key] = name
		if again := new(KeyScratch).key(proc, p.events, p.at); again != key {
			t.Errorf("%q: key depends on the scratch: %q vs %q", name, key, again)
		}
		first := pl.Transfers(proc, p.events, p.at, &ks)
		second := pl.Transfers(proc, p.events, p.at, new(KeyScratch))
		if len(first) == 0 || len(second) != len(first) || &first[0] != &second[0] {
			t.Errorf("%q: equal inputs did not return the memoized slice", name)
		}
	}
	// The strip window really restricts the plan it keys.
	full := pl.Transfers(proc, reads, zero, &ks)
	strip := pl.Transfers(proc, reads, points["strip"].at, &ks)
	if full[0].Data.Card() != 30 || strip[0].Data.Card() != 8 {
		t.Errorf("full column %d elements, strip window %d; want 30 and 8", full[0].Data.Card(), strip[0].Data.Card())
	}
}
