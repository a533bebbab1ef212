package dhpf

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"dhpf/internal/hpf"
	"dhpf/internal/nas"
	"dhpf/internal/parser"
)

const quickSrc = `
program demo
param N = 32
param P = 4
!hpf$ processors procs(P)
!hpf$ template tm(N, N)
!hpf$ align a with tm(d0, d1)
!hpf$ align b with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs

subroutine main()
  real a(0:N-1, 0:N-1)
  real b(0:N-1, 0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      a(i,j) = 0.01*i + 0.02*j
    enddo
  enddo
  do j = 1, N-2
    do i = 1, N-2
      b(i,j) = 0.25*(a(i-1,j) + a(i+1,j) + a(i,j-1) + a(i,j+1))
    enddo
  enddo
end
`

func TestPublicAPIRoundTrip(t *testing.T) {
	prog, err := Compile(quickSrc, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if prog.Ranks() != 4 {
		t.Fatalf("ranks = %d", prog.Ranks())
	}
	res, err := prog.Run(SP2Machine(prog.Ranks()))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := RunSerial(quickSrc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := res.AgreesWithSerial(ref, 0, "b"); err != nil {
		t.Fatal(err)
	}
	if res.Seconds() <= 0 || res.Messages() == 0 || res.Bytes() == 0 {
		t.Errorf("metrics: t=%g msgs=%d bytes=%d", res.Seconds(), res.Messages(), res.Bytes())
	}
	if len(res.RankSeconds()) != 4 {
		t.Errorf("rank times = %v", res.RankSeconds())
	}
}

func TestPublicAPIReport(t *testing.T) {
	prog, err := Compile(quickSrc, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := prog.Report()
	for _, want := range []string{"program demo", "ON_HOME b(i,j)", "read comm"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q", want)
		}
	}
}

func TestPublicAPIParamsAndTrace(t *testing.T) {
	prog, err := Compile(quickSrc, map[string]int{"N": 24, "P": 2}, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := SP2Machine(prog.Ranks())
	cfg.Trace = true
	res, err := prog.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := res.SpaceTime("demo", 40)
	if !strings.Contains(st, "P0") || !strings.Contains(st, "P1") {
		t.Fatalf("space-time diagram malformed:\n%s", st)
	}
	data, lo, hi, err := res.Array("a")
	if err != nil {
		t.Fatal(err)
	}
	if lo[0] != 0 || hi[0] != 23 || len(data) != 24*24 {
		t.Fatalf("bounds [%v:%v] len %d", lo, hi, len(data))
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("not a program", nil, DefaultOptions()); err == nil {
		t.Error("expected parse error")
	}
	// CYCLIC rejected by the analyses.
	cyc := `
program t
param N = 8
!hpf$ processors procs(2)
!hpf$ distribute a(CYCLIC) onto procs
subroutine main()
  real a(0:N-1)
  a(0) = 1.0
end
`
	if _, err := Compile(cyc, nil, DefaultOptions()); err == nil {
		t.Error("expected CYCLIC rejection")
	} else if !strings.Contains(err.Error(), "CYCLIC") {
		t.Errorf("error %q does not mention CYCLIC", err)
	}
	// A subscript over a name nothing binds: once a panic in the
	// verifier's privatization check, now the binder's typed error.
	unbound := "progrAm A\npArAm P =01\n!hpf$proCessors A0000(1)\nsuBroutine A()\n!hpf$independent, new(cv)\n" +
		"do A0=00,0\ndo A0=00,0\ncv= cv(A1)\nenddo\nenddo\nend\n"
	var unboundErr *hpf.UnboundNameError
	if _, err := Compile(unbound, nil, DefaultOptions()); !errors.As(err, &unboundErr) {
		t.Errorf("unbound subscript name: got %v, want an hpf.UnboundNameError", err)
	}
}

// TestColdCompileAllocBudget: what a library caller pays in allocations
// for one cold SP compile with its report and every node program.  The
// count is deterministic to a few objects; the budget is the measured
// 11 658 plus a tenth, so an allocation regression fails here and not
// first in the benchmark.  Earlier counts: 18 161 before distance vectors
// came from a slab, constant subscript differences were read without
// building them and a walk kept one loop stack; 18 766 before the parser
// stopped making garbage; 28 693 before one dependence graph per body and
// one iteration / non-local set per (statement, rank) served every pass;
// 52 937 before the node program was printed from one derivation per
// rank; 154 565 before the set layer stopped copying boxes.
func TestColdCompileAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	const budget = 12_820
	src := nas.SPSource(12, 1, 2, 2)
	got := testing.AllocsPerRun(3, func() {
		prog, err := Compile(src, nil, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		out := len(prog.Report())
		for r := 0; r < prog.Ranks(); r++ {
			out += len(prog.NodeProgram(r))
		}
		if out == 0 {
			t.Fatal("no output")
		}
	})
	if got > budget {
		t.Errorf("cold compile of SP(12,1,2,2): %.0f allocations, budget %d", got, budget)
	}
}

// TestParseAllocBudget: one parse of the modular SP program at 32³ — the
// program serve-session edits — at the measured 1 278 objects / 94 KB
// plus a margin.  A lexer that materialized its token slice (it regrew
// past len(src)/3) and affine terms summed through a map per term made
// 2 166 objects / 585 KB here.
func TestParseAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	const objBudget, kbBudget = 1_300, 120
	src := nas.SPModSource(32, 2, 2, 2)
	objs, bytes := allocsPerRun(5, func() {
		if _, err := parser.Parse(src); err != nil {
			t.Fatal(err)
		}
	})
	if objs > objBudget || bytes > kbBudget<<10 {
		t.Errorf("parse of SPMod(32,2,2,2): %.0f objects, %.1f KB; budget %d objects, %d KB", objs, bytes/1024, objBudget, kbBudget)
	}
}

// TestWarmEditAllocBudget: one warm edit through the public incremental
// API — the add procedure of SPMod(12,1,2,2) changed, so add and its
// caller main are dirty and every other procedure thaws — at the measured
// 3 838 objects / 307 KB plus a tenth.  It parses the whole program as a
// cold compile does and derives only add's and main's dependences.  The
// dependence tester's per-pair garbage made 4 726 objects / 318 KB here;
// persisting and thawing every procedure's dependence graph 5 283
// objects / 474 KB, and the per-procedure AST, raw-text and call-list
// caches before that 5 409 objects.
func TestWarmEditAllocBudget(t *testing.T) {
	if raceDetector {
		t.Skip("the race detector allocates on its own account")
	}
	const objBudget, kbBudget, runs = 4_220, 338, 5
	base := nas.SPModSource(12, 1, 2, 2)
	inc := NewIncremental(0)
	if _, _, err := inc.Compile(base, nil, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	// Every run edits afresh: a source compiled before would be all hits.
	edits := make([]string, runs+1)
	for i := range edits {
		edits[i] = strings.Replace(base, " + 0.1*(rhs(1", fmt.Sprintf(" + 0.1%04d*(rhs(1", i+1), 1)
	}
	next := 0
	objs, bytes := allocsPerRun(runs, func() {
		_, delta, err := inc.Compile(edits[next], nil, DefaultOptions())
		next++
		if err != nil {
			t.Fatal(err)
		}
		if delta.Dirty != 2 {
			t.Fatalf("edit dirtied %v, want add and main", delta.DirtyProcs)
		}
	})
	if objs > objBudget || bytes > kbBudget<<10 {
		t.Errorf("warm edit of SPMod(12,1,2,2): %.0f objects, %.1f KB; budget %d objects, %d KB", objs, bytes/1024, objBudget, kbBudget)
	}
}

// allocsPerRun is testing.AllocsPerRun that also reports the bytes one
// run allocates.
func allocsPerRun(runs int, f func()) (objs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}
