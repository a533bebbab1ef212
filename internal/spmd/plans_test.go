package spmd_test

// The program's plans as executions see them: each firing's closed form
// (sched/form.go) is derived once per schedule, a warm walk evaluates its
// firings and finds its activations without allocating, a steady
// execution stays inside an allocation budget, the counters say what was
// derived, and one Program may be executed from many goroutines at once.

import (
	"cmp"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"testing"

	"dhpf/internal/ir"
	"dhpf/internal/mpsim"
	"dhpf/internal/nas"
	"dhpf/internal/passes"
	"dhpf/internal/sched"
	"dhpf/internal/spmd"
)

// compileAt compiles src at the pipeline grain, 0 for the default.
func compileAt(t *testing.T, src string, grain int) *spmd.Program {
	t.Helper()
	return compileOn(t, src, grain, "")
}

// compileOn is compileAt for the backend, "" for the default.
func compileOn(t *testing.T, src string, grain int, backend string) *spmd.Program {
	t.Helper()
	opt := spmd.DefaultOptions()
	opt.Backend = backend
	if grain > 0 {
		opt.PipelineGrain = grain
	}
	prog, err := spmd.CompileSource(src, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func execute(t *testing.T, prog *spmd.Program, engine spmd.Engine) *spmd.ExecResult {
	t.Helper()
	res, err := prog.ExecuteEngine(mpsim.SP2Config(prog.Grid.Size()), engine)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestAllocationBudgets pins what a steady execution on the compiled
// engines allocates, at the measured count plus a tenth: a walker that
// evaluates its plans on the heap or re-derives iteration sets on every
// activation allocates five to eight times as much, and a kernel
// invocation that heap-allocates its environment shows first at grain 1,
// where LU invokes a unit per strip per nest (+1 600 when it did).  LU at
// grain 1 moves 912 tiny transfers, so the message path shows there too:
// a mailbox per (src, dst, tag), a queue that grows or a box odometer on
// the heap cost LU on mp about 2 000 allocations, on shm and hybrid about
// 1 400.  BT calls its solve_cell leaf about a hundred times per
// execution: a frame, its maps, kernel slots, guards and clamps built per
// activation cost it about a thousand.  An execution runs on the crew
// the Program kept from the last one: a machine and rank executors built
// per execution cost LU on mp about 560 more — most of them payload
// buffers its empty free lists could not serve — and SP and BT about 100
// each.  A result that kept every rank's main arrays — four objects each —
// instead of rank 0's, gathered at the join, cost SP about 95 more and
// LU and BT about 70.  What is left is rank 0's main
// arrays (three objects each: the array, its bounds and strides, its
// data) and the result itself.  No kernel is registered in this package,
// and the codegen engine binds its units once per plan, so a steady
// codegen execution allocates within a count or two of the default
// engine's.
// raceDetector reports whether the test binary was built with -race,
// which inflates allocation counts.
var raceDetector = func() bool {
	bi, ok := debug.ReadBuildInfo()
	return ok && slices.Contains(bi.Settings, debug.BuildSetting{Key: "-race", Value: "true"})
}()

func TestAllocationBudgets(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are inflated under -race")
	}
	luSrc := nas.LUSource(16, 1, 2, 2)
	lu := compileAt(t, luSrc, 1)
	luShm, luHybrid := compileOn(t, luSrc, 1, passes.BackendShm), compileOn(t, luSrc, 1, passes.BackendHybrid)
	sp := compileAt(t, nas.SPSource(16, 1, 2, 2), 0)
	bt := compileAt(t, nas.BTSource(12, 1, 2, 2), 0)
	for _, c := range []struct {
		name   string
		prog   *spmd.Program
		engine spmd.Engine
		budget float64
	}{
		{"lu16 grain 1", lu, spmd.EngineCompiled, 21},               // measured 19
		{"lu16 grain 1, codegen", lu, spmd.EngineCodegen, 21},       // measured 19
		{"lu16 grain 1, shm", luShm, spmd.EngineCompiled, 24},       // measured 22
		{"lu16 grain 1, hybrid", luHybrid, spmd.EngineCompiled, 24}, // measured 22
		{"sp16", sp, spmd.EngineCompiled, 28},                       // measured 25
		{"bt12", bt, spmd.EngineCompiled, 21},                       // measured 19
	} {
		run := func() { execute(t, c.prog, c.engine) }
		got := testing.AllocsPerRun(5, run)
		if got > c.budget {
			t.Errorf("%s: a steady execution allocates %.0f times, budget %.0f; by site, over 5 more:\n%s", c.name, got, c.budget, allocSites(run, 5, 12))
		}
		t.Logf("%s: %.0f allocations per steady execution", c.name, got)
	}
}

// allocSites runs f n times with every allocation profiled and lists the
// top sites by objects allocated: the first frame of each stack outside
// the runtime, with the count.
func allocSites(f func(), n, top int) string {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := allocsByStack()
	for range n {
		f()
	}
	type site struct {
		where string
		objs  int64
	}
	var sites []site
	for stack, objs := range allocsByStack() {
		if objs -= before[stack]; objs <= 0 {
			continue
		}
		where := "?"
		frames := runtime.CallersFrames(stack[:])
		for fr, more := frames.Next(); ; fr, more = frames.Next() {
			if !strings.HasPrefix(fr.Function, "runtime.") && !strings.HasPrefix(fr.Function, "internal/") {
				where = fmt.Sprintf("%s (%s:%d)", fr.Function, filepath.Base(fr.File), fr.Line)
				break
			}
			if !more {
				break
			}
		}
		sites = append(sites, site{where, objs})
	}
	slices.SortFunc(sites, func(a, b site) int { return cmp.Compare(b.objs, a.objs) })
	var b strings.Builder
	for _, s := range sites[:min(top, len(sites))] {
		fmt.Fprintf(&b, "\t%6d %s\n", s.objs, s.where)
	}
	return b.String()
}

// allocsByStack is the memory profile's allocated objects by stack, as
// of two collections from now, when it is complete.
func allocsByStack() map[[32]uintptr]int64 {
	runtime.GC()
	runtime.GC()
	recs := make([]runtime.MemProfileRecord, 256)
	for {
		n, ok := runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
		recs = make([]runtime.MemProfileRecord, n+n/2)
	}
	out := make(map[[32]uintptr]int64, len(recs))
	for _, r := range recs {
		out[r.Stack0] += r.AllocObjects
	}
	return out
}

// TestExecutionAllocatesWhatItReturns: a steady execution allocates
// little more than the one copy of main's arrays its result holds, on
// every backend — at most a tenth over 8 bytes per global element.  A
// result that kept every rank's full-size arrays cost P times that; any
// per-execution buffer the size of an array shows here first.  As in
// testing.AllocsPerRun, one thread runs the ranks, so a rank running
// ahead of its peers does not grow its mailboxes' free lists.
func TestExecutionAllocatesWhatItReturns(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are inflated under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, c := range []struct {
		name, src string
		grain     int
	}{
		{"sp16", nas.SPSource(16, 1, 2, 2), 0},
		{"bt12", nas.BTSource(12, 1, 2, 2), 0},
		{"lu16 grain 1", nas.LUSource(16, 1, 2, 2), 1},
	} {
		for _, backend := range []string{passes.BackendMP, passes.BackendShm, passes.BackendHybrid} {
			prog := compileOn(t, c.src, c.grain, backend)
			returned := 0
			for _, data := range globals(t, prog, execute(t, prog, spmd.EngineCompiled)) {
				returned += 8 * len(data)
			}
			const runs = 5
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				execute(t, prog, spmd.EngineCompiled)
			}
			runtime.ReadMemStats(&after)
			got := float64(after.TotalAlloc-before.TotalAlloc) / runs
			if got > 1.1*float64(returned) {
				t.Errorf("%s on %s: a steady execution allocates %.0f bytes to return %d", c.name, backend, got, returned)
			}
			t.Logf("%s on %s: %.0f bytes allocated per steady execution, %d returned (%.3f×)", c.name, backend, got, returned, got/float64(returned))
		}
	}
}

// leafCallsSrc calls leaf K times from main's loop: an array formal, an
// integer formal and a value formal, a loop the compiled engines run as
// a kernel unit.
const leafCallsSrc = `
program leaf_calls
param N = 64
param K = 8
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs

subroutine leaf(v, kk, s)
  real v(0:N-1)
  do i = 0, N-1
    v(i) = v(i) + s * kk
  enddo
end

subroutine main()
  real a(0:N-1)
  do i = 0, N-1
    a(i) = 1.0 * i
  enddo
  do k = 1, K
    call leaf(a, k, 0.5 * k)
  enddo
end
`

// TestActivationsDoNotAllocate: a procedure activation costs a steady
// execution nothing — its frame, actuals, kernel slots and guards and
// the walker's frame are the rank's from the activation before — so the
// execution allocates as much at 64 calls per rank as at 8.
func TestActivationsDoNotAllocate(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are inflated under -race")
	}
	for _, backend := range []string{passes.BackendMP, passes.BackendShm} {
		var allocs [2]float64
		for i, k := range []int{8, 64} {
			opt := spmd.DefaultOptions()
			opt.Backend = backend
			prog, err := spmd.CompileSource(leafCallsSrc, map[string]int{"K": k}, opt)
			if err != nil {
				t.Fatal(err)
			}
			allocs[i] = testing.AllocsPerRun(5, func() { execute(t, prog, spmd.EngineCompiled) })
		}
		if math.Abs(allocs[1]-allocs[0]) > 1 {
			t.Errorf("%s: a steady execution allocates %.0f times at 8 calls per rank, %.0f at 64", backend, allocs[0], allocs[1])
		}
		t.Logf("%s: %.0f allocations per steady execution at 8 calls per rank, %.0f at 64", backend, allocs[0], allocs[1])
	}
}

// quietOps walks without doing anything: no values, no machine.
type quietOps struct{}

func (quietOps) Enter(*sched.Frame)                         {}
func (quietOps) Leave()                                     {}
func (quietOps) Actual(string, ir.Expr)                     {}
func (quietOps) Scalar(ir.Expr) float64                     { return 0 }
func (quietOps) Assign(*ir.Assign)                          {}
func (quietOps) Handled(*sched.Frame, *ir.Loop, int) bool   { return false }
func (quietOps) ReduceInit([]sched.Reduction) []float64     { return nil }
func (quietOps) ReduceCombine([]sched.Reduction, []float64) {}
func (quietOps) Send([]sched.Transfer, int)                 {}
func (quietOps) Recv([]sched.Transfer, int)                 {}
func (quietOps) Drain()                                     {}

// TestWarmLookupsDoNotAllocate: once a walker has walked its schedule, a
// walk — every firing's plan evaluated from its closed form, every
// activation's iteration sets found in the rank's table — allocates
// nothing, on LU at grain 1 (wavefront chunks, plans held across a
// strip) and on BT (a hundred leaf activations).
func TestWarmLookupsDoNotAllocate(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are inflated under -race")
	}
	for name, prog := range map[string]*spmd.Program{
		"lu16 grain 1": compileAt(t, nas.LUSource(16, 1, 2, 2), 1),
		"bt12":         compileAt(t, nas.BTSource(12, 1, 2, 2), 0),
	} {
		w := sched.NewWalker(prog.Schedule(), 1, quietOps{})
		w.Run()
		if w.Plans.Firings == 0 {
			t.Fatalf("%s: the walk fired nothing", name)
		}
		if n := testing.AllocsPerRun(5, func() { w.Reset(); w.Run() }); n != 0 {
			t.Errorf("%s: a warm walk of %d firings allocates %v times", name, w.Plans.Firings, n)
		}
	}
}

// TestPlanStats: a program's first execution derives the closed form of
// every firing it walks exactly once — racing ranks publish one form —
// and no later execution, engine or fresh crew derives another; the
// counts repeat from program to program.  Over the clock corpus.  No
// firing of SP, BT or LU is planned by Plan: each has its closed form.
func TestPlanStats(t *testing.T) {
	names, srcs := clockCorpus(t)
	var derived int64
	for _, name := range names {
		prog := compileAt(t, srcs[name], 1)
		first := execute(t, prog, spmd.EngineCompiled).Plans
		if first.Derived > first.Firings || first.Firings > 0 && first.Derived == 0 {
			t.Errorf("%s: first execution: %v; want a form derived for at most every firing, and some", name, first)
		}
		if nas := name == "sp16" || name == "bt12" || name == "lu16"; nas && first.General != 0 {
			t.Errorf("%s: %v; want no firing planned by Plan", name, first)
		}
		derived += first.Derived
		if n := prog.Schedule().FormsDerived(); int64(n) != first.Derived {
			t.Errorf("%s: first execution counted %d forms derived, the schedule holds %d", name, first.Derived, n)
		}
		for _, engine := range []spmd.Engine{spmd.EngineInterp, spmd.EngineCodegen} {
			if again := execute(t, prog, engine).Plans; again != (sched.PlanStats{Firings: first.Firings, General: first.General}) {
				t.Errorf("%s: a later execution on engine %d: %v, want %d firings, %d general and no form derived", name, engine, again, first.Firings, first.General)
			}
		}
		if fresh := execute(t, compileAt(t, srcs[name], 1), spmd.EngineInterp).Plans; fresh != first {
			t.Errorf("%s: a fresh program counted %v, the first %v", name, fresh, first)
		}
	}
	if derived == 0 {
		t.Error("no program of the corpus derived a form")
	}
}

// TestEveryWalkReadsOneSchedule: ExecuteEngine, PredictCost and DryRun
// of one Program walk its one schedule and its closed forms: the ones
// the execution derived serve both analyses.  The program compiled for
// grain 1 is handed a schedule strip-mined at grain 4: a consumer that
// built a schedule of its own would count grain 1's messages.
func TestEveryWalkReadsOneSchedule(t *testing.T) {
	src := nas.LUSource(16, 1, 2, 2)
	grain1 := execute(t, compileAt(t, src, 1), spmd.EngineCompiled).Machine
	prog := compileAt(t, src, 1)
	s := sched.New(sched.Input{IR: prog.IR, Ctx: prog.Ctx, Sel: prog.Sel, Comm: prog.Comm,
		Reductions: prog.Reductions, Grid: prog.Grid, Grain: 4})
	spmd.UseSchedule(prog, s)
	res := execute(t, prog, spmd.EngineCompiled).Machine
	if prog.Schedule() != s {
		t.Fatal("the program's schedule was replaced")
	}
	if res.TotalMessages() == grain1.TotalMessages() {
		t.Fatalf("grain 4 and grain 1 both send %d messages: the test cannot tell the schedules apart", res.TotalMessages())
	}
	derived := s.FormsDerived()
	if derived == 0 {
		t.Fatal("the execution derived no form on the program's schedule")
	}
	cost, err := prog.PredictCost()
	if err != nil {
		t.Fatal(err)
	}
	_, dry, err := prog.DryRun(mpsim.SP2Config(prog.Grid.Size()))
	if err != nil {
		t.Fatal(err)
	}
	if n := s.FormsDerived(); n != derived {
		t.Errorf("PredictCost and DryRun took the schedule from %d forms to %d", derived, n)
	}
	if cost.TotalMessages() != res.TotalMessages() {
		t.Errorf("messages: PredictCost %d, ExecuteEngine %d (grain 1: %d)", cost.TotalMessages(), res.TotalMessages(), grain1.TotalMessages())
	}
	if err := spmd.SameMachine(dry, res); err != nil {
		t.Errorf("DryRun against ExecuteEngine: %v", err)
	}
}

// TestConcurrentExecutions: eight goroutines execute one cold sp16
// Program at once — the daemon's /v1/run shape — across all three
// engines.  They share the program's schedule and derive its closed
// forms as they race; every result is bit-identical to a lone execution's.
func TestConcurrentExecutions(t *testing.T) {
	src := nas.SPSource(16, 1, 2, 2)
	want := execute(t, compileAt(t, src, 0), spmd.EngineCompiled)
	prog := compileAt(t, src, 0)
	results := make([]*spmd.ExecResult, 8)
	var wg sync.WaitGroup
	for g := range results {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			res, err := prog.ExecuteEngine(mpsim.SP2Config(prog.Grid.Size()), spmd.Engine(g%3))
			if err != nil {
				t.Errorf("goroutine %d: %v", g, err)
				return
			}
			results[g] = res
		}(g)
	}
	wg.Wait()
	for g, res := range results {
		if res == nil {
			continue
		}
		if err := spmd.SameRun(prog, want, res); err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}
