package hpf

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"dhpf/internal/ir"
	"dhpf/internal/iset"
	"dhpf/internal/parser"
)

func TestGridCoordRankRoundTrip(t *testing.T) {
	g := NewGrid("p", 3, 4, 2)
	if g.Size() != 24 {
		t.Fatalf("Size = %d", g.Size())
	}
	for r := 0; r < g.Size(); r++ {
		c := g.Coord(r)
		if back := g.Rank(c); back != r {
			t.Fatalf("Rank(Coord(%d)) = %d", r, back)
		}
	}
	// Row-major: last dim fastest.
	c := g.Coord(1)
	if c[0] != 0 || c[1] != 0 || c[2] != 1 {
		t.Fatalf("Coord(1) = %v", c)
	}
}

func TestDefaultBlockSize(t *testing.T) {
	cases := []struct{ extent, np, want int }{
		{64, 4, 16}, {65, 4, 17}, {100, 3, 34}, {5, 5, 1}, {7, 2, 4},
	}
	for _, c := range cases {
		if got := DefaultBlockSize(c.extent, c.np); got != c.want {
			t.Errorf("DefaultBlockSize(%d,%d) = %d, want %d", c.extent, c.np, got, c.want)
		}
	}
}

func TestBlockLayoutPartition(t *testing.T) {
	g := NewGrid("p", 2, 2)
	// 2-D array [0:63]×[0:63], both dims BLOCK.
	l := NewBlockLayout("a", g, []int{0, 0}, []int{63, 63}, []int{0, 1})
	space := l.Space()
	// Local boxes must partition the space.
	var union iset.Set = iset.EmptySet(2)
	var total int64
	for r := 0; r < g.Size(); r++ {
		lb := l.LocalBox(r)
		if lb.Empty() {
			t.Fatalf("rank %d owns nothing", r)
		}
		if union.IntersectBox(lb).Card() != 0 {
			t.Fatalf("rank %d box overlaps earlier ranks", r)
		}
		union = union.UnionBox(lb)
		total += lb.Card()
	}
	if total != space.Card() || !union.Eq(iset.FromBox(space)) {
		t.Fatalf("local boxes do not partition the space: %d vs %d", total, space.Card())
	}
	// OwnerOf must agree with LocalBox.
	for r := 0; r < g.Size(); r++ {
		lb := l.LocalBox(r)
		lb.Each(func(p []int) bool {
			if l.OwnerOf(p) != r {
				t.Fatalf("OwnerOf(%v) = %d, LocalBox says %d", p, l.OwnerOf(p), r)
			}
			return true
		})
	}
}

func TestStarDimensionReplicated(t *testing.T) {
	g := NewGrid("p", 4)
	// 2-D array, dim0 undistributed, dim1 BLOCK.
	l := NewBlockLayout("a", g, []int{0, 0}, []int{9, 63}, []int{-1, 0})
	for r := 0; r < 4; r++ {
		lb := l.LocalBox(r)
		if lb.Lo[0] != 0 || lb.Hi[0] != 9 {
			t.Fatalf("star dim not full on rank %d: %v", r, lb)
		}
		if lb.Hi[1]-lb.Lo[1]+1 != 16 {
			t.Fatalf("block dim width wrong on rank %d: %v", r, lb)
		}
	}
	if l.GridDimOfArrayDim(0) != -1 || l.GridDimOfArrayDim(1) != 0 {
		t.Error("GridDimOfArrayDim wrong")
	}
}

func TestUnevenBlockLastRankShortens(t *testing.T) {
	g := NewGrid("p", 4)
	// extent 10 over 4 procs: block size 3; rank 3 owns just 1 element.
	l := NewBlockLayout("a", g, []int{0}, []int{9}, []int{0})
	widths := []int64{3, 3, 3, 1}
	for r, w := range widths {
		if got := l.LocalBox(r).Card(); got != w {
			t.Errorf("rank %d owns %d, want %d", r, got, w)
		}
	}
}

func TestQuickOwnershipPartition(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		np := 1 + rng.Intn(6)
		extent := np + rng.Intn(40)
		g := NewGrid("p", np)
		l := NewBlockLayout("a", g, []int{0}, []int{extent - 1}, []int{0})
		// Every element owned exactly once; owners monotone nondecreasing.
		prev := 0
		for i := 0; i < extent; i++ {
			own := l.OwnerOf([]int{i})
			if own < prev || own >= np {
				return false
			}
			if !l.LocalBox(own).Contains([]int{i}) {
				return false
			}
			prev = own
		}
		// Sum of local box widths = extent.
		var total int64
		for r := 0; r < np; r++ {
			total += l.LocalBox(r).Card()
		}
		return total == int64(extent)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBindFromDirectives(t *testing.T) {
	src := `
program t
param N = 64
!hpf$ processors procs(2, 2)
!hpf$ template tmpl(N, N, N)
!hpf$ align u with tmpl(d0, d1, d2)
!hpf$ distribute tmpl(*, BLOCK, BLOCK) onto procs

subroutine main()
  real u(0:N-1, 0:N-1, 0:N-1)
  real w(0:N-1)
  do i = 0, N-1
    w(i) = u(i, 0, 0)
  enddo
end
`
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bind(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	lu := b.LayoutOf("u")
	if lu == nil {
		t.Fatal("u has no layout")
	}
	if lu.Dims[0].Kind != Star || lu.Dims[1].Kind != Block || lu.Dims[2].Kind != Block {
		t.Fatalf("u layout = %v", lu)
	}
	if lu.Dims[1].BlockSz != 32 {
		t.Fatalf("block size = %d", lu.Dims[1].BlockSz)
	}
	if b.LayoutOf("w") != nil {
		t.Error("w should be replicated (no layout)")
	}
	// Rank 3 = coords (1,1) owns the high halves of dims 1 and 2.
	lb := lu.LocalBox(3)
	want := iset.NewBox([]int{0, 32, 32}, []int{63, 63, 63})
	if !lb.Eq(want) {
		t.Fatalf("rank 3 box = %v, want %v", lb, want)
	}
}

func TestBindParamOverride(t *testing.T) {
	src := `
program t
param N = 64
param P = 2
!hpf$ processors procs(P)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  a(0) = 1.0
end
`
	prog := parser.MustParse(src)
	b, err := Bind(prog, map[string]int{"N": 100, "P": 5})
	if err != nil {
		t.Fatal(err)
	}
	if b.Grids["procs"].Size() != 5 {
		t.Fatalf("grid size = %d", b.Grids["procs"].Size())
	}
	if got := b.LayoutOf("a").Dims[0].BlockSz; got != 20 {
		t.Fatalf("block size = %d", got)
	}
}

func TestBindAlignOffset(t *testing.T) {
	src := `
program t
param N = 16
!hpf$ processors procs(4)
!hpf$ template tmpl(N)
!hpf$ align a with tmpl(d0+1)
!hpf$ distribute tmpl(BLOCK) onto procs
subroutine main()
  real a(0:N-2)
  a(0) = 1.0
end
`
	prog := parser.MustParse(src)
	b, err := Bind(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	l := b.LayoutOf("a")
	if l.Dims[0].TplOff != 1 {
		t.Fatalf("TplOff = %d", l.Dims[0].TplOff)
	}
	// Template cells 0..15 over 4 procs → blocks of 4.  a(i) sits at
	// template i+1, so rank 0 owns template [0:3] → a[0:2]
	// (a's index 3 sits at template cell 4, owned by rank 1).
	lb := l.LocalBox(0)
	if lb.Lo[0] != 0 || lb.Hi[0] != 2 {
		t.Fatalf("rank 0 box = %v", lb)
	}
	lb1 := l.LocalBox(1)
	if lb1.Lo[0] != 3 || lb1.Hi[0] != 6 {
		t.Fatalf("rank 1 box = %v", lb1)
	}
}

func TestBindErrors(t *testing.T) {
	srcs := map[string]string{
		"unknown grid": `
program t
param N = 8
!hpf$ distribute a(BLOCK) onto nosuch
subroutine main()
  real a(0:N-1)
  a(0) = 1.0
end
`,
		"undeclared array": `
program t
param N = 8
!hpf$ processors procs(2)
!hpf$ distribute ghost(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  a(0) = 1.0
end
`,
		"grid dim mismatch": `
program t
param N = 8
!hpf$ processors procs(2, 2)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  a(0) = 1.0
end
`,
		// Once a compiler panic (iset: set rank mismatch in the analyses).
		"one array, two ranks": `
program t
param N = 8
!hpf$ processors procs(2)
!hpf$ distribute b(BLOCK) onto procs
subroutine main()
  real b(0:N-1)
  do i = 0, N-1
    b(i) = a(i,0)
    a(i) = 1.0
  enddo
end
`,
		"reference rank differs from the declaration": `
program t
param N = 8
!hpf$ processors procs(2)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  a(0,1) = 1.0
end
`,
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			prog := parser.MustParse(src)
			_, err := Bind(prog, nil)
			if err == nil {
				t.Fatal("expected bind error")
			}
			if strings.Contains(name, "rank") && !strings.Contains(err.Error(), `proc main: array "a" has rank`) {
				t.Fatalf("error does not name procedure, array and rank: %v", err)
			}
		})
	}
}

// TestBindRejectsUnboundSubscriptName: a subscript naming what is neither
// a parameter, an enclosing loop variable nor a formal is a typed bind
// error — once a panic in dep.refElemSet under NEW(cv).  Parameters,
// loop variables and formals are accepted.
func TestBindRejectsUnboundSubscriptName(t *testing.T) {
	bad := "progrAm A\npArAm P =01\n!hpf$proCessors A0000(1)\nsuBroutine A()\n!hpf$independent, new(cv)\n" +
		"do A0=00,0\ndo A0=00,0\ncv= cv(A1)\nenddo\nenddo\nend\n"
	_, err := Bind(parser.MustParse(bad), nil)
	var unbound *UnboundNameError
	if !errors.As(err, &unbound) || unbound.Proc != "A" || unbound.Name != "A1" || unbound.Array != "cv" {
		t.Fatalf("got %v, want an UnboundNameError for A1 in cv's subscript in A", err)
	}
	good := `
program t
param N = 8
!hpf$ processors procs(2)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  do i = 0, N-2
    a(i+1) = a(N-1-i)
  enddo
  call f(a, 3)
end
subroutine f(b, m)
  real b(0:N-1)
  b(m) = b(N-m)
end
`
	if _, err := Bind(parser.MustParse(good), nil); err != nil {
		t.Fatalf("parameters, loop variables and formals rejected: %v", err)
	}
}

// --- multipartitioning -----------------------------------------------------

func TestMultipartitionBalance(t *testing.T) {
	m, err := NewMultipartition(4, 64, 64, 64)
	if err != nil {
		t.Fatal(err)
	}
	if m.Procs() != 16 {
		t.Fatalf("Procs = %d", m.Procs())
	}
	// Each rank owns exactly Q cells, and the cells tile the domain.
	counts := map[int]int{}
	for c1 := 0; c1 < 4; c1++ {
		for c2 := 0; c2 < 4; c2++ {
			for c3 := 0; c3 < 4; c3++ {
				counts[m.OwnerOfCell(c1, c2, c3)]++
			}
		}
	}
	for r := 0; r < 16; r++ {
		if counts[r] != 4 {
			t.Fatalf("rank %d owns %d cells, want 4", r, counts[r])
		}
	}
	var total int64
	for r := 0; r < 16; r++ {
		total += m.LocalSet(r).Card()
	}
	if total != 64*64*64 {
		t.Fatalf("cells cover %d points, want %d", total, 64*64*64)
	}
}

func TestMultipartitionSweepProperty(t *testing.T) {
	m, _ := NewMultipartition(3, 30, 31, 32)
	// At every stage of a sweep along any dimension, every processor has
	// exactly one cell.
	for dim := 0; dim < 3; dim++ {
		for s := 0; s < m.Q; s++ {
			stage := m.SweepStage(dim, s)
			if len(stage) != m.Procs() {
				t.Fatalf("dim %d stage %d: %d procs active, want %d", dim, s, len(stage), m.Procs())
			}
		}
	}
}

func TestMultipartitionCellsOfConsistent(t *testing.T) {
	m, _ := NewMultipartition(4, 40, 40, 40)
	for r := 0; r < m.Procs(); r++ {
		cells := m.CellsOf(r)
		if len(cells) != m.Q {
			t.Fatalf("rank %d has %d cells", r, len(cells))
		}
		for _, c := range cells {
			if m.OwnerOfCell(c[0], c[1], c[2]) != r {
				t.Fatalf("CellsOf(%d) includes %v owned by %d", r, c, m.OwnerOfCell(c[0], c[1], c[2]))
			}
		}
	}
}

func TestMultipartitionSuccessor(t *testing.T) {
	m, _ := NewMultipartition(3, 9, 9, 9)
	c := [3]int{0, 1, 2}
	succ := m.SuccessorInSweep(0, c)
	if want := m.OwnerOfCell(1, 1, 2); succ != want {
		t.Fatalf("successor = %d, want %d", succ, want)
	}
	if m.SuccessorInSweep(0, [3]int{2, 1, 2}) != -1 {
		t.Error("boundary successor should be -1")
	}
}

func TestQuickMultipartitionIsPartition(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := 2 + rng.Intn(4)
		n1, n2, n3 := q+rng.Intn(20), q+rng.Intn(20), q+rng.Intn(20)
		m, err := NewMultipartition(q, n1, n2, n3)
		if err != nil {
			return false
		}
		var union iset.Set = iset.EmptySet(3)
		var total int64
		for r := 0; r < m.Procs(); r++ {
			ls := m.LocalSet(r)
			if !union.Intersect(ls).IsEmpty() {
				return false
			}
			union = union.Union(ls)
			total += ls.Card()
		}
		return total == int64(n1)*int64(n2)*int64(n3)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Guard: ir import used for building programs directly if needed later.
var _ = ir.Num

// TestLocalBoxShared: every rank's box is computed once per layout, so
// asking is free; a CYCLIC layout binds (the compiler rejects it later)
// and still has no boxes to hand out.
func TestLocalBoxShared(t *testing.T) {
	l := NewBlockLayout("a", NewGrid("p", 2, 2), []int{0, 0}, []int{63, 63}, []int{0, 1})
	if n := testing.AllocsPerRun(100, func() { _ = l.LocalBox(3) }); n != 0 {
		t.Errorf("LocalBox allocates %v times per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = l.Space() }); n != 0 {
		t.Errorf("Space allocates %v times per call", n)
	}
	if got := l.Space().String(); got != "[0:63, 0:63]" {
		t.Errorf("Space = %s", got)
	}
	b, err := Bind(parser.MustParse(`
program t
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(CYCLIC) onto procs
subroutine main()
  real a(0:N-1)
  a(0) = 1.0
end
`), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.LayoutOf("a").Space().String(); got != "[0:15]" {
		t.Errorf("Space of the CYCLIC layout = %s", got)
	}
	defer func() {
		if recover() == nil {
			t.Errorf("LocalBox on a CYCLIC layout did not panic")
		}
	}()
	b.LayoutOf("a").LocalBox(0)
}
