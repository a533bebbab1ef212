package passes

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dhpf/internal/cache"
	"dhpf/internal/ir"
)

// incrSrc is a modular multi-unit program shaped like the NAS solvers:
// a communicating stencil phase, a wavefront sweep, and a tiny add phase
// (the canonical edit target), called from main's time loop.  (The full
// modular SP source lives in internal/nas, which this package cannot
// import without a cycle; the root-level differential tests cover it.)
func incrSrc(n int) string {
	return fmt.Sprintf(`
program incr
param N = %d
!hpf$ processors procs(2, 2)
!hpf$ template tm(N, N, N)
!hpf$ align u with tm(d0, d1, d2)
!hpf$ align r with tm(d0, d1, d2)
!hpf$ align rho with tm(d0, d1, d2)
!hpf$ distribute tm(*, BLOCK, BLOCK) onto procs

subroutine compute(u, r, rho)
  real u(0:N-1, 0:N-1, 0:N-1)
  real r(0:N-1, 0:N-1, 0:N-1)
  real rho(0:N-1, 0:N-1, 0:N-1)
  !hpf$ independent, localize(rho)
  do onetrip = 1, 1
    do k = 0, N-1
      do j = 0, N-1
        do i = 0, N-1
          rho(i,j,k) = 1.0 / u(i,j,k)
        enddo
      enddo
    enddo
    do k = 1, N-2
      do j = 1, N-2
        do i = 1, N-2
          r(i,j,k) = 0.25*(rho(i,j+1,k) + rho(i,j-1,k) + rho(i,j,k+1) + rho(i,j,k-1))
        enddo
      enddo
    enddo
  enddo
end

subroutine sweep(u, r)
  real u(0:N-1, 0:N-1, 0:N-1)
  real r(0:N-1, 0:N-1, 0:N-1)
  do j = 1, N-2
    do k = 1, N-2
      do i = 1, N-2
        r(i,j+1,k) = r(i,j+1,k) - 0.4*r(i,j,k)/u(i,j,k)
      enddo
    enddo
  enddo
end

subroutine add(u, r)
  real u(0:N-1, 0:N-1, 0:N-1)
  real r(0:N-1, 0:N-1, 0:N-1)
  do k = 1, N-2
    do j = 1, N-2
      do i = 1, N-2
        u(i,j,k) = u(i,j,k) + 0.10000*r(i,j,k)
      enddo
    enddo
  enddo
end

subroutine main()
  real u(0:N-1, 0:N-1, 0:N-1)
  real r(0:N-1, 0:N-1, 0:N-1)
  real rho(0:N-1, 0:N-1, 0:N-1)
  do step = 1, 2
    call compute(u, r, rho)
    call sweep(u, r)
    call add(u, r)
  enddo
end
`, n)
}

func compileCold(t *testing.T, src string, opt Options) *CompileContext {
	t.Helper()
	cc := &CompileContext{Source: src, Opt: opt}
	if err := Run(cc); err != nil {
		t.Fatalf("cold compile: %v", err)
	}
	return cc
}

func compileIncr(t *testing.T, src string, opt Options, store *cache.ArtifactStore) (*CompileContext, *Delta) {
	t.Helper()
	cc := &CompileContext{Source: src, Opt: opt}
	delta, err := RunIncremental(cc, store)
	if err != nil {
		t.Fatalf("incremental compile: %v", err)
	}
	return cc, delta
}

// snapshot renders everything downstream consumers read from a compiled
// context: the (post-distribution) IR, the per-proc communication events
// and notes, the selection notes, the reduction plans and the
// verification report.  Two contexts with equal snapshots produce
// byte-identical reports, node programs and diagnostics.
func snapshot(cc *CompileContext) string {
	var b strings.Builder
	b.WriteString(ir.Print(cc.IR))
	for _, proc := range cc.IR.Procs {
		a := cc.Comm[proc.Name]
		fmt.Fprintf(&b, "== comm %s\n", proc.Name)
		for _, e := range a.Events {
			b.WriteString(e.String() + "\n")
		}
		for _, n := range a.Notes {
			b.WriteString("note: " + n + "\n")
		}
	}
	fmt.Fprintf(&b, "== selection\n")
	// Report order (Notes), not emission order: a warm run emits thawed
	// notes at install time, but every consumer reads the sorted log.
	for _, n := range cc.Sel.Notes() {
		b.WriteString(n + "\n")
	}
	fmt.Fprintf(&b, "== reductions\n")
	for _, proc := range cc.IR.Procs {
		for _, r := range cc.Reductions[proc.Name] {
			fmt.Fprintf(&b, "%s: %s op %c stmt %d\n", proc.Name, r.Var, r.Op, r.Stmt.ID)
		}
	}
	if cc.Verify != nil {
		fmt.Fprintf(&b, "== verify\n%s", cc.Verify.String())
	}
	return b.String()
}

// editAdd makes the canonical warm edit: a one-constant change inside
// the add procedure.
func editAdd(src string, i int) string {
	edited := strings.Replace(src, "0.10000", fmt.Sprintf("0.1%04d", i), 1)
	if edited == src {
		panic("edit marker not found in source")
	}
	return edited
}

// An incremental recompile after an edit must be byte-identical to a
// cold compile of the edited source, while recompiling only the edited
// procedure and its callers.
func TestIncrementalMatchesColdAfterEdit(t *testing.T) {
	base := incrSrc(16)
	store := cache.NewArtifactStore(0)
	compileIncr(t, base, DefaultOptions(), store) // prime

	edited := editAdd(base, 1)
	warm, delta := compileIncr(t, edited, DefaultOptions(), store)
	cold := compileCold(t, edited, DefaultOptions())

	if got, want := snapshot(warm), snapshot(cold); got != want {
		t.Fatalf("incremental output differs from cold:\n--- incremental ---\n%s\n--- cold ---\n%s", got, want)
	}
	if delta.Dirty >= delta.Procs {
		t.Fatalf("delta = %v: nothing was reused", delta)
	}
	// add changed; main's environment embeds add.  Nothing else moves.
	if delta.Dirty != 2 {
		t.Errorf("dirty procs = %v, want exactly [add main]", delta.DirtyProcs)
	}
	if delta.ArtifactHits == 0 {
		t.Error("no artifacts were thawed on the warm edit")
	}
}

// The differential matrix: every ablation of an optional pass must also
// hold the byte-identical invariant, under a sequence of distinct edits.
func TestIncrementalMatchesColdUnderAblations(t *testing.T) {
	base := incrSrc(12)
	ablations := [][]string{nil}
	for _, name := range OptionalPassNames() {
		ablations = append(ablations, []string{name})
	}
	for _, disable := range ablations {
		name := "default"
		if len(disable) > 0 {
			name = "no-" + disable[0]
		}
		t.Run(name, func(t *testing.T) {
			opt := DefaultOptions().WithDisabled(disable...)
			store := cache.NewArtifactStore(0)
			compileIncr(t, base, opt, store)
			for i := 1; i <= 2; i++ {
				edited := editAdd(base, i)
				warm, _ := compileIncr(t, edited, opt, store)
				cold := compileCold(t, edited, opt)
				if got, want := snapshot(warm), snapshot(cold); got != want {
					t.Fatalf("edit %d: incremental differs from cold:\n--- incremental ---\n%s\n--- cold ---\n%s", i, got, want)
				}
			}
		})
	}
}

// The shipped example programs must round-trip through the incremental
// path unchanged too (single-procedure programs: the whole program is
// one unit, so a recompile of identical source must be fully cached and
// identical).
func TestIncrementalMatchesColdOnTestdata(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.hpf")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata files found: %v", err)
	}
	for _, f := range files {
		t.Run(filepath.Base(f), func(t *testing.T) {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			store := cache.NewArtifactStore(0)
			compileIncr(t, string(src), DefaultOptions(), store)
			warm, delta := compileIncr(t, string(src), DefaultOptions(), store)
			cold := compileCold(t, string(src), DefaultOptions())
			if got, want := snapshot(warm), snapshot(cold); got != want {
				t.Fatalf("incremental differs from cold:\n--- incremental ---\n%s\n--- cold ---\n%s", got, want)
			}
			if delta.Dirty != 0 {
				t.Errorf("identical recompile dirtied %v", delta.DirtyProcs)
			}
		})
	}
}

// A recompile of identical source reuses everything and marks the
// per-procedure passes cached in the stats.
func TestIncrementalIdenticalRecompileFullyCached(t *testing.T) {
	src := incrSrc(12)
	store := cache.NewArtifactStore(0)
	compileIncr(t, src, DefaultOptions(), store)
	cc, delta := compileIncr(t, src, DefaultOptions(), store)

	if delta.Dirty != 0 || delta.ArtifactMisses != 0 {
		t.Fatalf("identical recompile: delta = %v", delta)
	}
	cached := map[string]bool{}
	for _, st := range cc.Stats {
		cached[st.Name] = st.Cached
	}
	for _, name := range []string{PassDependence, PassCPSelect, PassNewProp, PassLocalize, PassInterproc,
		PassCommPlan, PassAvailability, PassWritebackRed, PassVerify} {
		if !cached[name] {
			t.Errorf("pass %s not marked cached on identical recompile", name)
		}
	}
	if table := StatsTable(cc.Stats); !strings.Contains(table, "cached") {
		t.Error("StatsTable does not label cached passes")
	}
}

// Whitespace- and comment-only edits dirty nothing.
func TestIncrementalWhitespaceEditDirtiesNothing(t *testing.T) {
	src := incrSrc(12)
	store := cache.NewArtifactStore(0)
	compileIncr(t, src, DefaultOptions(), store)
	noisy := strings.Replace(src, "subroutine add(u, r)",
		"! cosmetic comment\nsubroutine  add(u,   r)", 1)
	_, delta := compileIncr(t, noisy, DefaultOptions(), store)
	if delta.Dirty != 0 {
		t.Fatalf("cosmetic edit dirtied %v", delta.DirtyProcs)
	}
}

// Changing options must not reuse artifacts across option sets, and the
// outputs under the new options must match a cold compile.
func TestIncrementalOptionChangeRecompiles(t *testing.T) {
	src := incrSrc(12)
	store := cache.NewArtifactStore(0)
	compileIncr(t, src, DefaultOptions(), store)

	opt := DefaultOptions().WithDisabled(PassAvailability)
	warm, delta := compileIncr(t, src, opt, store)
	if delta.Dirty != delta.Procs {
		t.Fatalf("option change reused artifacts: %v", delta)
	}
	cold := compileCold(t, src, opt)
	if snapshot(warm) != snapshot(cold) {
		t.Fatal("incremental under changed options differs from cold")
	}
}

// A syntax error introduced by an edit must surface through the warm
// path with exactly the cold parser's message, line number included.
func TestIncrementalParseErrorMatchesCold(t *testing.T) {
	base := incrSrc(12)
	store := cache.NewArtifactStore(0)
	compileIncr(t, base, DefaultOptions(), store)

	broken := strings.Replace(base, "u(i,j,k) + 0.10000*r(i,j,k)", "u(i,j,k) + + 0.10000*", 1)
	if broken == base {
		t.Fatal("edit marker not found")
	}
	coldErr := Run(&CompileContext{Source: broken, Opt: DefaultOptions()})
	if coldErr == nil {
		t.Fatal("cold compile of broken source succeeded")
	}
	_, warmErr := RunIncremental(&CompileContext{Source: broken, Opt: DefaultOptions()}, store)
	if warmErr == nil {
		t.Fatal("incremental compile of broken source succeeded")
	}
	if warmErr.Error() != coldErr.Error() {
		t.Fatalf("warm error %q != cold error %q", warmErr, coldErr)
	}
}

// pairSrc is two procedures: split holds conflict2's nest (cp's testdata),
// whose scalar hand-off CP selection marks for §5 to distribute, and main,
// which split's environment does not embed, carries the edit marker.
const pairSrc = `
program pair
param N = 64
!hpf$ processors procs(4)
!hpf$ template tm(N)
!hpf$ align a with tm(d0)
!hpf$ align b with tm(d0)
!hpf$ align c with tm(d0)
!hpf$ distribute tm(BLOCK) onto procs

subroutine split(a, b, c)
  real a(0:N-1)
  real b(0:N-1)
  real c(0:N-1)
  real s
  do j = 1, N-3
    s = a(j) * 2.0
    c(j+1) = s + b(j+1)
  enddo
end

subroutine main()
  real a(0:N-1)
  real b(0:N-1)
  real c(0:N-1)
  do j = 0, N-1
    a(j) = 0.10000 * j
    b(j) = 1.0
  enddo
  call split(a, b, c)
end
`

// The one warm path on which a clean procedure's dependences are derived:
// an edit in main leaves split clean, and split's thawed selection marks
// a pair, so loop distribution reads split's graph.  Under defaults and
// every single Disable the warm compile matches a cold one — and without
// loopdist both refuse the pair alike.
func TestIncrementalMatchesColdWithCleanMarkedPair(t *testing.T) {
	edited := editAdd(pairSrc, 1)
	for _, name := range append([]string{""}, OptionalPassNames()...) {
		label, opt := "default", DefaultOptions()
		if name != "" {
			label, opt = "no-"+name, opt.WithDisabled(name)
		}
		t.Run(label, func(t *testing.T) {
			store := cache.NewArtifactStore(0)
			_, primeErr := RunIncremental(&CompileContext{Source: pairSrc, Opt: opt}, store)
			warm := &CompileContext{Source: edited, Opt: opt}
			delta, warmErr := RunIncremental(warm, store)
			cold := &CompileContext{Source: edited, Opt: opt}
			coldErr := Run(cold)
			if name == PassLoopDist {
				var pair *UndistributedPairError
				if !errors.As(coldErr, &pair) || pair.Proc != "split" || primeErr == nil || warmErr == nil || warmErr.Error() != coldErr.Error() {
					t.Fatalf("want every compile to refuse split's pair alike: prime %v, warm %v, cold %v", primeErr, warmErr, coldErr)
				}
				return
			}
			if primeErr != nil || warmErr != nil || coldErr != nil {
				t.Fatalf("prime %v, warm %v, cold %v", primeErr, warmErr, coldErr)
			}
			if delta.Dirty != 1 || delta.DirtyProcs[0] != "main" {
				t.Fatalf("dirty procs = %v, want exactly [main]", delta.DirtyProcs)
			}
			split := warm.IR.Proc("split")
			if len(warm.Sel.Marked[split]) == 0 {
				t.Fatal("split's thawed selection marks no pair")
			}
			got, want := snapshot(warm), snapshot(cold)
			if !strings.Contains(want, "proc split: distributed loop j") {
				t.Fatalf("cold compile did not distribute split:\n%s", want)
			}
			if got != want {
				t.Fatalf("incremental differs from cold:\n--- incremental ---\n%s\n--- cold ---\n%s", got, want)
			}
			if err := warm.Ctx.Audit(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
