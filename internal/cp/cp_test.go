package cp

import (
	"strings"
	"testing"

	"dhpf/internal/hpf"
	"dhpf/internal/ir"
	"dhpf/internal/iset"
	"dhpf/internal/parser"
)

// mustCtx parses a program and builds the analysis context.
func mustCtx(t *testing.T, src string) *Context {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hpf.Bind(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := NewContext(prog, b)
	if err != nil {
		t.Fatal(err)
	}
	return ctx
}

func mustSelect(t *testing.T, ctx *Context, opt Options) *Selection {
	t.Helper()
	sel, err := Select(ctx, opt)
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

func TestCPBasics(t *testing.T) {
	c1 := OnHome(ir.NewRef("a", ir.SubVar("i", 0)))
	c2 := OnHome(ir.NewRef("a", ir.SubVar("i", 0)))
	c3 := OnHome(ir.NewRef("a", ir.SubVar("i", 1)))
	if !c1.Eq(c2) {
		t.Error("identical CPs not equal")
	}
	if c1.Eq(c3) {
		t.Error("different CPs equal")
	}
	u := c1.Union(c3)
	if len(u.Terms) != 2 {
		t.Fatalf("union terms = %d", len(u.Terms))
	}
	// Union with duplicate keeps one term.
	u2 := c1.Union(c2)
	if len(u2.Terms) != 1 {
		t.Fatalf("dup union terms = %d", len(u2.Terms))
	}
	var rep *CP
	if !rep.Replicated() {
		t.Error("nil CP should be replicated")
	}
	if got := c1.Union(rep); !got.Replicated() {
		t.Error("union with replicated should be replicated")
	}
}

func TestIterSetOwnerComputes(t *testing.T) {
	ctx := mustCtx(t, `
program t
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  do i = 1, N-2
    a(i) = 1.0
  enddo
end
`)
	proc := ctx.Prog.Main()
	loop := proc.Body[0].(*ir.Loop)
	a := loop.Body[0].(*ir.Assign)
	c := OnHome(a.LHS)
	// Rank 0 owns a[0:3]; iterations 1..3 run there.
	is := c.IterSet([]*ir.Loop{loop}, ctx.Bind.Params, ctx.LocalOf(proc, 0))
	want := iset.FromBox(iset.Interval(1, 3))
	if !is.Eq(want) {
		t.Fatalf("rank0 iters = %v, want %v", is, want)
	}
	// Rank 3 owns a[12:15]; iterations 12..14.
	is3 := c.IterSet([]*ir.Loop{loop}, ctx.Bind.Params, ctx.LocalOf(proc, 3))
	if !is3.Eq(iset.FromBox(iset.Interval(12, 14))) {
		t.Fatalf("rank3 iters = %v", is3)
	}
	// Union over all ranks covers the loop exactly once.
	total := iset.EmptySet(1)
	var card int64
	for r := 0; r < 4; r++ {
		s := c.IterSet([]*ir.Loop{loop}, ctx.Bind.Params, ctx.LocalOf(proc, r))
		card += s.Card()
		total = total.Union(s)
	}
	if card != 14 || total.Card() != 14 {
		t.Fatalf("iteration partition broken: card=%d union=%d", card, total.Card())
	}
}

func TestIterSetShiftedAndReversed(t *testing.T) {
	ctx := mustCtx(t, `
program t
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  do i = 1, N-2
    a(i) = 1.0
  enddo
end
`)
	proc := ctx.Prog.Main()
	loop := proc.Body[0].(*ir.Loop)
	// ON_HOME a(i+1): rank 0 owns a[0:3] ⇒ i+1 ∈ [0,3] ⇒ i ∈ [1,2] (∩ loop).
	c := OnHome(ir.NewRef("a", ir.SubVar("i", 1)))
	is := c.IterSet([]*ir.Loop{loop}, ctx.Bind.Params, ctx.LocalOf(proc, 0))
	if !is.Eq(iset.FromBox(iset.Interval(1, 2))) {
		t.Fatalf("shifted iters = %v", is)
	}
	// ON_HOME a(-i+15): rank 0 ⇒ 15-i ∈ [0,3] ⇒ i ∈ [12,14].
	cr := OnHome(ir.NewRef("a", ir.Subscript{Var: "i", Coef: -1, Off: ir.Num(15)}))
	isr := cr.IterSet([]*ir.Loop{loop}, ctx.Bind.Params, ctx.LocalOf(proc, 0))
	if !isr.Eq(iset.FromBox(iset.Interval(12, 14))) {
		t.Fatalf("reversed iters = %v", isr)
	}
}

func TestIterSetRangeTerm(t *testing.T) {
	ctx := mustCtx(t, `
program t
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  do i = 0, N-1
    a(i) = 1.0
  enddo
end
`)
	proc := ctx.Prog.Main()
	loop := proc.Body[0].(*ir.Loop)
	// Term a([2:5]) — vectorized: ranks intersecting [2:5] run the whole
	// loop; others run nothing.
	c := &CP{}
	c.AddTerm(Term{Array: "a", Subs: []HomeSub{RangeSub(ir.Num(2), ir.Num(5))}})
	full := iset.FromBox(iset.Interval(0, 15))
	if got := c.IterSet([]*ir.Loop{loop}, ctx.Bind.Params, ctx.LocalOf(proc, 0)); !got.Eq(full) {
		t.Fatalf("rank0 (owns 0:3, hits [2:5]) iters = %v", got)
	}
	if got := c.IterSet([]*ir.Loop{loop}, ctx.Bind.Params, ctx.LocalOf(proc, 1)); !got.Eq(full) {
		t.Fatalf("rank1 (owns 4:7, hits) iters = %v", got)
	}
	if got := c.IterSet([]*ir.Loop{loop}, ctx.Bind.Params, ctx.LocalOf(proc, 3)); !got.IsEmpty() {
		t.Fatalf("rank3 (owns 12:15, misses) iters = %v", got)
	}
}

// TestIterSetOutsideEveryLoop: a statement outside every loop has a
// nest of no dimension, so its iteration set on a rank is {()} where the
// rank runs it and empty where it does not — a point or range subscript
// that misses the rank's box, a bound integer formal among them, leaves
// nothing.  A replicated CP, and a term on an array with no layout, run
// everywhere.
func TestIterSetOutsideEveryLoop(t *testing.T) {
	ctx := mustCtx(t, `
program t
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  real b(0:N-1)
  a(1) = b(2)
end
`)
	proc := ctx.Prog.Main()
	bind := map[string]int{"c": 9}
	for name, v := range ctx.Bind.Params {
		bind[name] = v
	}
	term := func(array string, s HomeSub) *CP {
		return &CP{Terms: []Term{{Array: array, Subs: []HomeSub{s}}}}
	}
	cases := []struct {
		name string
		cp   *CP
		card []int64 // per rank, 1 where it runs; rank r owns a[4r:4r+3]
	}{
		{"point", term("a", FromSubscript(ir.SubConst(ir.Num(1)))), []int64{1, 0, 0, 0}},
		{"range", term("a", RangeSub(ir.Num(6), ir.Num(8))), []int64{0, 1, 1, 0}},
		{"formal", term("a", HomeSub{Var: "c", Coef: 1, Off: ir.Num(4)}), []int64{0, 0, 0, 1}},
		{"union", OnHome(ir.NewRef("a", ir.SubConst(ir.Num(1))), ir.NewRef("a", ir.SubConst(ir.Num(14)))), []int64{1, 0, 0, 1}},
		{"replicated", &CP{}, []int64{1, 1, 1, 1}},
		{"no-layout", term("b", FromSubscript(ir.SubConst(ir.Num(1)))), []int64{1, 1, 1, 1}},
	}
	for _, c := range cases {
		for r, want := range c.card {
			got := c.cp.IterSet(nil, bind, ctx.LocalOf(proc, r))
			if got.Rank() != 0 || got.Card() != want {
				t.Errorf("%s, rank %d: iteration set %v of rank %d, %d points; want %d", c.name, r, got, got.Rank(), got.Card(), want)
			}
		}
	}
}

func TestRefDataBoxAndSet(t *testing.T) {
	iter := iset.NewBox([]int{1, 2}, []int{5, 9})
	ref := ir.NewRef("a", ir.SubVar("j", 1), ir.SubVar("i", -1))
	// nest vars (i,j): dim0 uses j+1 → [3:10]; dim1 uses i-1 → [0:4].
	box := RefDataBox(ref, []string{"i", "j"}, iter, map[string]int{})
	if !box.Eq(iset.NewBox([]int{3, 0}, []int{10, 4})) {
		t.Fatalf("data box = %v", box)
	}
	// Constant subscripts and empty iteration boxes.
	empty := iset.NewBox([]int{2, 2}, []int{1, 1})
	if !RefDataBox(ref, []string{"i", "j"}, empty, map[string]int{}).Empty() {
		t.Error("empty iter box gave non-empty data")
	}
}

// --- local selection (§2) ---------------------------------------------------

func TestSelectionPrefersOwnerComputesForStencil(t *testing.T) {
	ctx := mustCtx(t, `
program t
param N = 64
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align a with tm(d0, d1)
!hpf$ align b with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs
subroutine main()
  real a(0:N-1, 0:N-1)
  real b(0:N-1, 0:N-1)
  do j = 1, N-2
    do i = 1, N-2
      b(i,j) = a(i,j-1) + a(i,j+1)
    enddo
  enddo
end
`)
	sel := mustSelect(t, ctx, DefaultOptions())
	loop := ctx.Prog.Main().Body[0].(*ir.Loop)
	a := loop.Body[0].(*ir.Loop).Body[0].(*ir.Assign)
	got := sel.CPOf(a.ID)
	want := OnHome(a.LHS)
	if !got.Eq(want) {
		t.Fatalf("stencil CP = %v, want %v", got, want)
	}
}

func TestSelectionFollowsReadsForScalarWrites(t *testing.T) {
	// Scalar LHS, distributed RHS: the statement should execute where
	// the data lives, not everywhere.
	ctx := mustCtx(t, `
program t
param N = 64
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  real s
  do i = 1, N-2
    s = a(i) * 2.0
    a(i) = s + 1.0
  enddo
end
`)
	sel := mustSelect(t, ctx, DefaultOptions())
	loop := ctx.Prog.Main().Body[0].(*ir.Loop)
	a := loop.Body[0].(*ir.Assign)
	got := sel.CPOf(a.ID)
	if got.Replicated() {
		t.Fatal("CP replicated; should be ON_HOME a(i)")
	}
	if got.Terms[0].Array != "a" {
		t.Fatalf("CP = %v", got)
	}
}

func TestUndistributedArrayWriteReplicates(t *testing.T) {
	// Writes to an undistributed (replicated) array must execute on
	// every rank to keep the copies consistent.
	ctx := mustCtx(t, `
program t
param N = 64
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  real w(0:N-1)
  do i = 1, N-2
    w(i) = a(i) * 2.0
  enddo
end
`)
	sel := mustSelect(t, ctx, DefaultOptions())
	loop := ctx.Prog.Main().Body[0].(*ir.Loop)
	a := loop.Body[0].(*ir.Assign)
	if !sel.CPOf(a.ID).Replicated() {
		t.Fatalf("CP = %v, want replicated", sel.CPOf(a.ID))
	}
}

// --- §4.1: NEW propagation (paper Figure 4.1, subroutine lhsy of SP) --------

const lhsySrc = `
program sp_lhsy
param N = 64
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align lhs with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs

subroutine main()
  real lhs(0:N-1, 0:N-1)
  real cv(0:N-1)
  real rhoq(0:N-1)
  !hpf$ independent, new(cv, rhoq)
  do i = 1, N-2
    do j = 0, N-1
      cv(j) = 1.5
      rhoq(j) = 2.5
    enddo
    do j = 1, N-2
      lhs(i,j) = cv(j-1) + rhoq(j) + cv(j+1)
    enddo
  enddo
end
`

func TestNewPropagationLhsy(t *testing.T) {
	ctx := mustCtx(t, lhsySrc)
	sel := mustSelect(t, ctx, DefaultOptions())
	iLoop := ctx.Prog.Main().Body[0].(*ir.Loop)
	defLoop := iLoop.Body[0].(*ir.Loop)
	cvDef := defLoop.Body[0].(*ir.Assign)
	rhoqDef := defLoop.Body[1].(*ir.Assign)
	useLoop := iLoop.Body[1].(*ir.Loop)
	use := useLoop.Body[0].(*ir.Assign)

	// The use keeps owner-computes.
	if !sel.CPOf(use.ID).Eq(OnHome(use.LHS)) {
		t.Fatalf("use CP = %v", sel.CPOf(use.ID))
	}
	// cv is read at j-1 and j+1 ⇒ def CP = lhs(i,j+1) ∪ lhs(i,j-1).
	cvCP := sel.CPOf(cvDef.ID)
	wantCv := OnHome(
		ir.NewRef("lhs", ir.SubVar("i", 0), ir.SubVar("j", 1)),
		ir.NewRef("lhs", ir.SubVar("i", 0), ir.SubVar("j", -1)),
	)
	if !cvCP.Eq(wantCv) {
		t.Fatalf("cv def CP = %v, want %v", cvCP, wantCv)
	}
	// rhoq is read only at j ⇒ def CP = lhs(i,j).
	rhoqCP := sel.CPOf(rhoqDef.ID)
	wantRhoq := OnHome(ir.NewRef("lhs", ir.SubVar("i", 0), ir.SubVar("j", 0)))
	if !rhoqCP.Eq(wantRhoq) {
		t.Fatalf("rhoq def CP = %v, want %v", rhoqCP, wantRhoq)
	}
}

func TestNewPropagationEliminatesInnerComm(t *testing.T) {
	// The whole point of §4.1: with the propagated CP, every processor
	// computes exactly the cv elements it uses — the non-local read set
	// of cv in the use loop must be empty on every rank.
	ctx := mustCtx(t, lhsySrc)
	sel := mustSelect(t, ctx, DefaultOptions())
	proc := ctx.Prog.Main()
	iLoop := proc.Body[0].(*ir.Loop)
	defLoop := iLoop.Body[0].(*ir.Loop)
	cvDef := defLoop.Body[0].(*ir.Assign)
	useLoop := iLoop.Body[1].(*ir.Loop)
	use := useLoop.Body[0].(*ir.Assign)

	defNest := []*ir.Loop{iLoop, defLoop}
	useNest := []*ir.Loop{iLoop, useLoop}
	for r := 0; r < 4; r++ {
		localOf := ctx.LocalOf(proc, r)
		defIters := sel.CPOf(cvDef.ID).IterSet(defNest, ctx.Bind.Params, localOf)
		computed := RefDataSet(cvDef.LHS, ir.NestVars(defNest), defIters, ctx.Bind.Params)
		useIters := sel.CPOf(use.ID).IterSet(useNest, ctx.Bind.Params, localOf)
		for _, uref := range ir.Refs(use.RHS) {
			if uref.Name != "cv" {
				continue
			}
			needed := RefDataSet(uref, ir.NestVars(useNest), useIters, ctx.Bind.Params)
			if !needed.SubsetOf(computed) {
				t.Fatalf("rank %d: needs cv %v but computes only %v", r, needed, computed)
			}
		}
	}
}

func TestNewPropagationBoundaryReplication(t *testing.T) {
	// Boundary elements must be computed on BOTH neighbouring processors
	// (partial replication), interior elements on exactly one.
	ctx := mustCtx(t, lhsySrc)
	sel := mustSelect(t, ctx, DefaultOptions())
	proc := ctx.Prog.Main()
	iLoop := proc.Body[0].(*ir.Loop)
	defLoop := iLoop.Body[0].(*ir.Loop)
	cvDef := defLoop.Body[0].(*ir.Assign)
	defNest := []*ir.Loop{iLoop, defLoop}

	count := map[int]int{}
	for r := 0; r < 4; r++ {
		iters := sel.CPOf(cvDef.ID).IterSet(defNest, ctx.Bind.Params, ctx.LocalOf(proc, r))
		data := RefDataSet(cvDef.LHS, ir.NestVars(defNest), iters, ctx.Bind.Params)
		data.Each(func(p []int) bool {
			count[p[0]]++
			return true
		})
	}
	// lhs block boundary in j at 16: cv(15) and cv(16) straddle ranks 0/1
	// (used at j-1 and j+1 from both sides).
	if count[15] < 2 || count[16] < 2 {
		t.Fatalf("boundary cv elements not replicated: cv[15]=%d cv[16]=%d", count[15], count[16])
	}
	if count[8] != 1 {
		t.Fatalf("interior element computed %d times", count[8])
	}
}

func TestNewPropagationAblationModes(t *testing.T) {
	// Replicate mode: defs of privatizables become replicated.
	ctx := mustCtx(t, lhsySrc)
	opt := DefaultOptions()
	opt.NewProp = NewPropReplicate
	sel := mustSelect(t, ctx, opt)
	iLoop := ctx.Prog.Main().Body[0].(*ir.Loop)
	cvDef := iLoop.Body[0].(*ir.Loop).Body[0].(*ir.Assign)
	if !sel.CPOf(cvDef.ID).Replicated() {
		t.Fatalf("replicate mode CP = %v", sel.CPOf(cvDef.ID))
	}
	// Owner mode: owner-computes of cv(j) itself.
	ctx2 := mustCtx(t, lhsySrc)
	opt.NewProp = NewPropOwner
	sel2 := mustSelect(t, ctx2, opt)
	iLoop2 := ctx2.Prog.Main().Body[0].(*ir.Loop)
	cvDef2 := iLoop2.Body[0].(*ir.Loop).Body[0].(*ir.Assign)
	want := OnHome(cvDef2.LHS)
	if !sel2.CPOf(cvDef2.ID).Eq(want) {
		t.Fatalf("owner mode CP = %v", sel2.CPOf(cvDef2.ID))
	}
}

// --- §4.2: LOCALIZE (paper Figure 4.2, compute_rhs) --------------------------

const computeRhsSrc = `
program bt_rhs
param N = 64
!hpf$ processors procs(2, 2)
!hpf$ template tm(N, N, N)
!hpf$ align rhs with tm(d0, d1, d2)
!hpf$ align rho_i with tm(d0, d1, d2)
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
          rhs(i,j,k) = rho_i(i+1,j,k) - rho_i(i-1,j,k) + rho_i(i,j+1,k) - rho_i(i,j-1,k)
        enddo
      enddo
    enddo
  enddo
end
`

func TestLocalizeComputeRhs(t *testing.T) {
	ctx := mustCtx(t, computeRhsSrc)
	sel := mustSelect(t, ctx, DefaultOptions())
	one := ctx.Prog.Main().Body[0].(*ir.Loop)
	defK := one.Body[0].(*ir.Loop)
	def := defK.Body[0].(*ir.Loop).Body[0].(*ir.Loop).Body[0].(*ir.Assign)
	cp := sel.CPOf(def.ID)
	if cp.Replicated() {
		t.Fatal("LOCALIZE def CP is replicated")
	}
	// Must contain the owner term and the four translated use terms.
	if len(cp.Terms) != 5 {
		t.Fatalf("LOCALIZE def CP has %d terms: %v", len(cp.Terms), cp)
	}
	hasOwner := false
	for _, term := range cp.Terms {
		if term.Array == "rho_i" {
			hasOwner = true
		}
	}
	if !hasOwner {
		t.Fatalf("LOCALIZE def CP lacks owner term: %v", cp)
	}
}

func TestLocalizeEliminatesBoundaryComm(t *testing.T) {
	ctx := mustCtx(t, computeRhsSrc)
	sel := mustSelect(t, ctx, DefaultOptions())
	proc := ctx.Prog.Main()
	one := proc.Body[0].(*ir.Loop)
	defK := one.Body[0].(*ir.Loop)
	def := defK.Body[0].(*ir.Loop).Body[0].(*ir.Loop).Body[0].(*ir.Assign)
	useK := one.Body[1].(*ir.Loop)
	use := useK.Body[0].(*ir.Loop).Body[0].(*ir.Loop).Body[0].(*ir.Assign)

	defNest := []*ir.Loop{one, defK, defK.Body[0].(*ir.Loop), defK.Body[0].(*ir.Loop).Body[0].(*ir.Loop)}
	useNest := []*ir.Loop{one, useK, useK.Body[0].(*ir.Loop), useK.Body[0].(*ir.Loop).Body[0].(*ir.Loop)}

	for r := 0; r < 4; r++ {
		localOf := ctx.LocalOf(proc, r)
		defIters := sel.CPOf(def.ID).IterSet(defNest, ctx.Bind.Params, localOf)
		computed := RefDataSet(def.LHS, ir.NestVars(defNest), defIters, ctx.Bind.Params)
		useIters := sel.CPOf(use.ID).IterSet(useNest, ctx.Bind.Params, localOf)
		for _, uref := range ir.Refs(use.RHS) {
			if uref.Name != "rho_i" {
				continue
			}
			needed := RefDataSet(uref, ir.NestVars(useNest), useIters, ctx.Bind.Params)
			if !needed.SubsetOf(computed) {
				t.Fatalf("rank %d: needs rho_i %v beyond computed %v (ref %v)", r, needed.Subtract(computed), computed, uref)
			}
		}
	}
}

func TestLocalizeOffFallsBackToOwner(t *testing.T) {
	// The pipeline with the localize pass dropped: every phase but
	// PropagateLocalize.
	ctx := mustCtx(t, computeRhsSrc)
	opt := DefaultOptions()
	sel := NewSelection()
	if err := SelectBase(ctx, sel, opt, nil); err != nil {
		t.Fatal(err)
	}
	if err := PropagateNewArrays(ctx, sel, opt, nil); err != nil {
		t.Fatal(err)
	}
	if err := SelectInterproc(ctx, sel, nil); err != nil {
		t.Fatal(err)
	}
	one := ctx.Prog.Main().Body[0].(*ir.Loop)
	def := one.Body[0].(*ir.Loop).Body[0].(*ir.Loop).Body[0].(*ir.Loop).Body[0].(*ir.Assign)
	cp := sel.CPOf(def.ID)
	if len(cp.Terms) != 1 {
		t.Fatalf("without LOCALIZE expected single-term CP, got %v", cp)
	}
}

// A loop bound naming an enclosing loop variable has no value under the
// parameter binding every analysis evaluates bounds with; NewContext
// must refuse it with an error, not leave IterBox to panic.
func TestTriangularLoopBoundRejected(t *testing.T) {
	prog, err := parser.Parse(`
program tri
param N = 16
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align a with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs
subroutine main()
  real a(0:N-1, 0:N-1)
  do i = 0, N-1
    do j = 0, i
      a(j,i) = 1.0
    enddo
  enddo
end
`)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hpf.Bind(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewContext(prog, b)
	if err == nil {
		t.Fatal("triangular nest accepted")
	}
	for _, want := range []string{"proc main", "loop j", `"i"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
}
