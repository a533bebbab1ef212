package spmd

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"dhpf/internal/hpf"
	"dhpf/internal/ir"
	"dhpf/internal/iset"
	"dhpf/internal/mpsim"
	"dhpf/internal/passes"
	"dhpf/internal/sched"
	"dhpf/internal/shm"
)

// ExecResult is the outcome of running a compiled program.
type ExecResult struct {
	// Machine carries the virtual clocks, trace events and message
	// counters of the run on every backend; under the shared-memory
	// backends the message counters hold the hybrid layout's outer
	// traffic, zero for pure shm.
	Machine *mpsim.Result
	// Shm carries the shared-memory team's own counters (pulls, pulled
	// bytes, barriers); nil under the message-passing backend.
	Shm *shm.Result
	// Kernels is the run's kernel-unit coverage.  Native units bound,
	// native invocations and the native share of the flops are zero
	// except under EngineCodegen; precheck bails by reason and what the
	// in-process evaluator ran are counted on both compiled engines.  All
	// zero under EngineInterp.
	Kernels KernelStats
	// Nests is what the compiled engines left to the interpreter in this
	// run: compute nests no kernel unit covers, and the statement
	// instances that ran one at a time — outside every unit, or in an
	// invocation whose precheck bailed.  All zero under EngineInterp.
	Nests NestStats
	// Plans counts the run's plan firings, the closed forms it derived
	// rather than found on the program's schedule, and the firings whose
	// form has no closed form there, planned by Plan.
	Plans sched.PlanStats
	prog  *Program
	// main holds main's arrays by name, one copy each: rank 0's, handed
	// over at the join, every distributed one completed there with the
	// other ranks' local boxes (gather), so each element is its owner's.
	// No later execution touches them.
	main map[string]*array
}

// NestStats is the slow path of one execution on a compiled engine,
// summed over ranks after they join: a statement instance interpreted
// costs several times one inside a kernel unit.  It is telemetry only:
// nothing in it feeds results or virtual time.
type NestStats struct {
	Walked   int64 // statement instances interpreted, through the walker's Assign
	Declined int   // compute nests no kernel unit was cut from
}

func (n NestStats) String() string {
	return fmt.Sprintf("nests: %d declined, %d interpreted instances", n.Declined, n.Walked)
}

// Global returns the authoritative global contents of an array — each
// element its owner's copy, a replicated array rank 0's, an element no
// rank owns zero — as a fresh copy of the flattened data, plus the
// per-dimension bounds.
func (er *ExecResult) Global(name string) ([]float64, []int, []int, error) {
	if findDecl(er.prog.IR, name) == nil {
		return nil, nil, nil, fmt.Errorf("spmd: unknown array %q", name)
	}
	a := er.main[name]
	if a == nil {
		return nil, nil, nil, fmt.Errorf("spmd: array %q not allocated in main", name)
	}
	return slices.Clone(a.data), a.lo, a.hi, nil
}

// Execute runs the compiled program on the virtual machine with the
// default engine, the compiled engine.
func (p *Program) Execute(cfg mpsim.Config) (*ExecResult, error) {
	return p.ExecuteEngine(cfg, EngineCompiled)
}

// ExecuteEngine runs the compiled program with an explicit engine
// choice.  Every engine is the schedule walker over the reference
// interpreter's ops; EngineCompiled and EngineCodegen additionally claim
// the loops kernel units are rooted at and run them compiled (engine.go),
// byte-identical to EngineInterp, the oracle.
func (p *Program) ExecuteEngine(cfg mpsim.Config, engine Engine) (*ExecResult, error) {
	if cfg.Procs != p.Grid.Size() {
		return nil, fmt.Errorf("spmd: machine has %d ranks, program wants %d", cfg.Procs, p.Grid.Size())
	}
	backend, err := passes.ParseBackend(p.Opt.Backend)
	if err != nil {
		return nil, fmt.Errorf("spmd: %w", err)
	}
	s := p.Schedule()
	if err := s.Check(); err != nil {
		return nil, fmt.Errorf("spmd: %w", err)
	}
	// The plan is built once per Program, before any rank spawns; it is
	// immutable and shared read-only by all ranks.
	var plan *enginePlan
	var native []KernelFunc
	if engine != EngineInterp {
		plan = p.enginePlanFor()
		native = plan.bindKernels(engine)
	}
	c := p.crew.Swap(nil)
	if c == nil {
		c = p.newCrew(backend, cfg)
	}
	mres, sres, err := c.run(s, cfg, engine, plan, native)
	if err != nil {
		return nil, err
	}
	er := &ExecResult{Machine: mres, Shm: sres, Kernels: kernelStatsOf(native, c.ranks, mres.RankFlops),
		prog: p, main: c.gather(p.Ctx.Bind)}
	if plan != nil {
		er.Nests.Declined = plan.declined
	}
	for _, rx := range c.ranks {
		er.Nests.Walked += rx.walked
		er.Plans.Firings += rx.Plans.Firings
		er.Plans.Derived += rx.Plans.Derived
		er.Plans.General += rx.Plans.General
	}
	if c.idle() {
		p.crew.Store(c)
	}
	return er, nil
}

// crew is what an execution runs on: a machine — the message machine, or
// the shared-memory team around one — and a rank executor per rank.  A
// Program keeps its last idle crew and the next execution borrows it, so
// the mailboxes' queues and payload free lists, the walkers' scratch, the
// frame free lists, the kernel scratch and the payload staging buffers
// are warm from the first message on.  A crew serves one execution at a
// time: two concurrent executions of one Program never share one.
type crew struct {
	m    *mpsim.Machine // the message backend's machine, or nil
	team *shm.Team      // the shared-memory backends' team, or nil
	// groups is the team's grouping (nil unless hybrid), for Configure.
	groups []int
	// ranks are the rank executors, by rank; engine is what their engine
	// state was built for.  A nil entry is built by its rank's goroutine,
	// as every rank's state is: built side by side by one goroutine, the
	// ranks' hot scratch shares cache lines across cores.
	ranks  []*rankExec
	engine Engine
	// rankBody and threadBody run one rank of the crew's machine or team.
	rankBody   func(r *mpsim.Rank)
	threadBody func(t *shm.Thread)

	// s, plan and native are this execution's schedule, plan and kernel
	// binding.
	s      *sched.Schedule
	plan   *enginePlan
	native []KernelFunc
}

// newCrew builds a crew for the backend.  On the shared-memory backends
// one thread stands for each rank of the grid, with private full-size
// arrays, and replays the message plans as rendezvous-then-pull (Send,
// Recv and Drain below): the threads execute exactly the message ranks'
// partitions in the same order, so numeric results are bit-identical
// across backends by construction and only the clocks differ.  A hybrid
// layout prices a pull across the grid's groups (hpf.Grid.Groups) like a
// message.
func (p *Program) newCrew(backend string, cfg mpsim.Config) *crew {
	c := &crew{ranks: make([]*rankExec, cfg.Procs)}
	if backend == passes.BackendMP {
		c.m = mpsim.NewMachine(cfg, mpsim.MessageCost(cfg))
		c.rankBody = func(r *mpsim.Rank) { c.runRank(r, nil) }
	} else {
		if backend == passes.BackendHybrid {
			c.groups = p.Grid.Groups()
		}
		c.team = shm.NewTeam(shm.FromMachine(cfg, c.groups))
		c.threadBody = func(t *shm.Thread) { c.runRank(t.Rank, t) }
	}
	return c
}

// run binds the crew to this execution — the configuration (which sets
// the limits and whether to trace), the engine, its plan and its kernel
// binding — and runs the schedule on every rank.
func (c *crew) run(s *sched.Schedule, cfg mpsim.Config, engine Engine, plan *enginePlan, native []KernelFunc) (*mpsim.Result, *shm.Result, error) {
	if engine != c.engine {
		clear(c.ranks)
		c.engine = engine
	}
	c.s, c.plan, c.native = s, plan, native
	var mres *mpsim.Result
	var sres *shm.Result
	var err error
	if c.m != nil {
		c.m.Configure(cfg, mpsim.MessageCost(cfg))
		mres, err = c.m.Run(c.rankBody)
	} else {
		c.team.Configure(shm.FromMachine(cfg, c.groups))
		mres, sres, err = c.team.Run(c.threadBody)
	}
	if _, ok := err.(*mpsim.RankPanic); ok {
		err = fmt.Errorf("spmd: %w", err)
	}
	return mres, sres, err
}

// gather hands rank 0's arrays of main over to the result.  Each
// distributed one is completed in place, at the join: the other ranks'
// local boxes are copied in, in rank order (where boxes overlap, the
// highest rank's copy wins), and the elements no rank owns are cleared.
// Rank 0's main frame forgets the arrays, so its next activation
// allocates new ones; the other ranks' main frames keep theirs for the
// next execution.
func (c *crew) gather(bind *hpf.Binding) map[string]*array {
	f := c.ranks[0].mainFrame
	main := maps.Clone(f.arrays)
	clear(f.locals)
	for name, a := range main {
		l := bind.LayoutOf(name)
		if l == nil {
			continue
		}
		for r := 1; r < len(c.ranks); r++ {
			pullPayload(a, c.ranks[r].mainFrame.arrays[name], []iset.Box{l.LocalBox(r)})
		}
		clearBoxes(a, l.Unowned())
	}
	return main
}

// idle reports whether the crew may serve another execution: its last
// one finished on every rank and left no message queued.
func (c *crew) idle() bool {
	if c.m != nil {
		return c.m.Idle()
	}
	return c.team.Idle()
}

// runRank is every rank's body on either substrate: th is the
// shared-memory thread around rk, nil on the message backend.  A panic
// is the machine's to recover: it aborts the run, and the crew is
// dropped.
func (c *crew) runRank(rk *mpsim.Rank, th *shm.Thread) {
	rx := c.ranks[rk.ID]
	if rx == nil {
		rx = newRankExec(c.s, rk, th, c.plan, c.native)
		c.ranks[rk.ID] = rx
	}
	rx.reset()
	rx.Run()
	rx.flushFlops()
}

// --- array storage -----------------------------------------------------------

type array struct {
	name   string
	lo, hi []int
	stride []int
	data   []float64
}

// scalars is where integer names are read by name: a rank's walker
// (sched.Walker.Lookup), or the serial oracle's binding.
type scalars interface {
	Lookup(name string) (int, bool)
}

// nameBinding is a binding by name read as scalars.
type nameBinding map[string]int

func (b nameBinding) Lookup(name string) (int, bool) {
	v, ok := b[name]
	return v, ok
}

// evalAff is a.EvalOr(bind, 0) with the names read from sc.
func evalAff(a ir.AffExpr, sc scalars) int {
	v := a.Const
	for _, t := range a.Terms {
		x, _ := sc.Lookup(t.Name)
		v += t.Coef * x
	}
	return v
}

// newArray allocates d's array under the entry binding sc: the array,
// one block for its bounds and strides, and its data.
func newArray(d *ir.Decl, sc scalars) *array {
	r := d.Rank()
	dims := make([]int, 3*r)
	a := &array{name: d.Name, lo: dims[:r:r], hi: dims[r : 2*r : 2*r], stride: dims[2*r:]}
	size := 1
	for k := r - 1; k >= 0; k-- {
		a.lo[k], a.hi[k] = evalAff(d.LB[k], sc), evalAff(d.UB[k], sc)
		a.stride[k] = size
		size *= max(a.hi[k]-a.lo[k]+1, 0)
	}
	a.data = make([]float64, size)
	return a
}

func (a *array) off(p []int) int {
	o := 0
	for k, v := range p {
		if v < a.lo[k] || v > a.hi[k] {
			panic(fmt.Sprintf("spmd: %s%v out of bounds [%v:%v]", a.name, p, a.lo, a.hi))
		}
		o += (v - a.lo[k]) * a.stride[k]
	}
	return o
}

func (a *array) get(p []int) float64    { return a.data[a.off(p)] }
func (a *array) set(p []int, v float64) { a.data[a.off(p)] = v }

func findDecl(prog *ir.Program, name string) *ir.Decl {
	for _, proc := range prog.Procs {
		if d := proc.DeclOf(name); d != nil {
			return d
		}
	}
	return nil
}

// --- per-rank execution -------------------------------------------------------

type frame struct {
	proc   *ir.Procedure
	arrays map[string]*array
	fenv   map[string]float64
	// iteration sets (this rank) per assignment/call statement id,
	// computed over the statement's full nest at procedure entry
	iters map[int]iset.Set
	// locals holds, per declaration of proc, the array an activation
	// allocated for it (nil: a scalar, aliased at every activation so
	// far, or handed over to a result): reset hands it to the next
	// activation, zeroed.
	locals []*array
	// moved holds, per array the procedure's firings move
	// (sched.ProcSched.Arrays), this activation's: what a transfer's Slot
	// names.
	moved []*array
	// pos is proc's index in the rank's free list, and next links the
	// frames of finished activations of proc there.
	pos  int
	next *frame

	// Compiled-engine state, rebuilt in place on the activation's first
	// unit invocation (bound; never under the interpreter): array slots,
	// the guards and clamps derived from iters (engine_bounds.go), and per
	// unit statement a bit per guard box the precheck has proven whole
	// (kernel_invoke.go, proveBox).
	bound  bool
	aslots []*array
	guards []stmtGuard
	clamps []clampRange
	proofs []uint8
	// What the precheck found at a unit's first invocation in the
	// activation (kernel_invoke.go): per unit of the procedure, per level,
	// array and outer dimension of its units (KernelUnit.pidx, lvBase,
	// kaBase, outBase).
	units []unitAct
	lvls  []levelAct
	kas   [][]float64
	outer []int
}

// rankExec is one rank of an execution, kept with its crew for the
// next (reset).  The embedded walker carries
// the control state — the scalar binding (params + loop variables +
// integer formals), the strip window, the tag-block counter — and drives
// rankExec's sched.Ops methods below, the reference interpreter; the
// compiled engines wrap them in nestOps (engine.go).
type rankExec struct {
	*sched.Walker
	// sc is what eval reads integer names from: the walker, or the
	// serial oracle's binding.
	sc scalars
	// rk is the machine rank this executor runs on; th is the
	// shared-memory thread around it, nil on the message backend.  Only
	// Send, Recv and Drain ask which.
	rk        *mpsim.Rank
	th        *shm.Thread
	frames    []*frame
	flops     float64
	mainFrame *frame // main's activation, which the join gathers from
	// free holds, per procedure (sched.ProcSched.Index), the frames of
	// its finished activations, linked through frame.next: Enter takes
	// one back before it makes one.
	free     []*frame
	stackBuf [8]*frame // frames and free of a program with at most 4 procedures

	// The array and value actuals of the call being entered, collected
	// by Actual and consumed by Enter, which empties them for the next.
	actualArrays map[string]*array
	actualFloats map[string]float64

	// payload is the reused message staging buffer (mpsim.Send copies
	// before returning), grown to a transfer's size before it is packed.
	payload []float64
	// The array and element count of the last transfer this thread
	// published: what a deadlock report says its Drain waits to have
	// pulled.
	pubArray string
	pubElems int

	// Compiled-engine state (nil/zero under the interpreter): plan holds
	// the kernel units and native the execution's binding of each to a
	// registered kernel (nil: its evaluator); env holds the slots of the
	// unit being run; kb/kreach/kbox and kenv are invocation scratch
	// (kernel_invoke.go, kernel_eval.go), sized once for the largest unit
	// and never shared across ranks; walked and kstats count this rank's
	// interpreted statement instances, invocations and bails, merged into
	// ExecResult after the join.
	plan   *enginePlan
	native []KernelFunc
	env    engineEnv
	walked int64
	kb     []int
	kreach []int // per loop level: lo, hi of the guard boxes packed beneath it
	kbox   []kiv // per guard-box dimension, for the box proof
	kenv   kenv
	kstats KernelStats
	setBuf [64]bool // env.intSet and env.fset of a program with no more names than this
}

func newRankExec(s *sched.Schedule, rk *mpsim.Rank, th *shm.Thread, plan *enginePlan, native []KernelFunc) *rankExec {
	rx := &rankExec{rk: rk, th: th, plan: plan, native: native}
	n, stack := s.NumProcs(), rx.stackBuf[:]
	if 2*n > len(stack) {
		stack = make([]*frame, 2*n)
	}
	rx.frames, rx.free = stack[:0:n], stack[n:2*n]
	var ops sched.Ops = rx
	if plan != nil {
		// One integer block holds the slots and, behind them, the kernel
		// scratch: packed bounds, box reach, and the evaluator's locals,
		// index parts, box masks and guard ranges; its cells — array
		// accesses and temporaries — are one block more.
		sc, nInts, el := plan.scratch, len(plan.intSlot), plan.scratch.levels
		if !slices.ContainsFunc(native, func(fn KernelFunc) bool { return fn == nil }) {
			sc.offs, sc.masks, sc.assigns, sc.cells, el = 0, 0, 0, 0, 0 // every unit runs native: the evaluator needs nothing
		}
		ints := make([]int, nInts+sc.bounds+2*sc.levels+6*el+sc.offs+sc.masks+4*sc.assigns)
		cut := func(n int) []int {
			out := ints[:n:n]
			ints = ints[n:]
			return out
		}
		set := rx.setBuf[:]
		if n := nInts + plan.nFloats; n > len(set) {
			set = make([]bool, n)
		}
		rx.env = engineEnv{
			ints: cut(nInts), intSet: set[:nInts:nInts],
			floats: make([]float64, plan.nFloats), fset: set[nInts : nInts+plan.nFloats],
		}
		rx.kb, rx.kreach, rx.kbox = cut(sc.bounds), cut(2*sc.levels), make([]kiv, sc.dims)
		rx.kenv = kenv{loc: cut(el), off: cut(sc.offs), msk: cut(sc.masks), ent: cut(5 * el), rng: cut(4 * sc.assigns),
			cell: make([]kcell, sc.cells), ints: rx.env.ints, intSet: rx.env.intSet, floats: rx.env.floats, fset: rx.env.fset}
		ops = nestOps{rx}
	}
	rx.Walker = sched.NewWalker(s, rk.ID, ops)
	rx.sc = rx.Walker
	return rx
}

// reset readies the executor for an execution, whichever it served
// before: the walker back at the parameters, no frame and no main frame,
// and every counter at zero.  Its scratch, its frame free lists and its
// payload buffer stay.
func (rx *rankExec) reset() {
	rx.Walker.Reset()
	rx.frames, rx.mainFrame = rx.frames[:0], nil
	rx.flops, rx.walked, rx.kstats = 0, 0, KernelStats{}
	rx.pubArray, rx.pubElems = "", 0
}

func (rx *rankExec) top() *frame { return rx.frames[len(rx.frames)-1] }

func (rx *rankExec) flushFlops() {
	if rx.flops > 0 {
		rx.rk.Compute(rx.flops)
		rx.flops = 0
	}
}

// combine finalizes one reduction whose variable held s0 before the loop
// and holds v (this rank's partial) after it.
func (rx *rankExec) combine(op byte, v, s0 float64) float64 {
	rx.flushFlops()
	if op == '+' {
		if provenance != nil {
			return provenance.sum(s0 + rx.rk.AllReduce('+', v-s0))
		}
		return s0 + rx.rk.AllReduce('+', v-s0)
	}
	return rx.rk.AllReduce(op, v) // '<' min, '>' max: every rank's partial includes s0
}

// newFrame lays out a procedure activation under the entry binding, in a
// frame of its own: the serial oracle's.  actualArrays maps formal array
// names to the caller's array objects (aliasing, like Fortran); every
// other declared array is allocated.
func newFrame(proc *ir.Procedure, sc scalars, actualArrays map[string]*array, floatFormals map[string]float64) *frame {
	f := &frame{arrays: map[string]*array{}, fenv: map[string]float64{}}
	f.reset(proc, sc, actualArrays, floatFormals)
	return f
}

// reset lays out an activation of proc in f, whatever an earlier
// activation of proc left there: the names are rebound to the actuals,
// and each other declared array is the one the last activation had,
// zeroed, while its bounds under the entry binding are the same, a new
// one when they differ or a result took it.  Either way it reads as zero
// throughout, as a fresh activation's does.  The kernel state is unbound.
func (f *frame) reset(proc *ir.Procedure, sc scalars, actualArrays map[string]*array, floatFormals map[string]float64) {
	f.proc, f.bound = proc, false
	clear(f.arrays)
	clear(f.fenv)
	for name, a := range actualArrays {
		f.arrays[name] = a
	}
	for name, v := range floatFormals {
		f.fenv[name] = v
	}
	if len(f.locals) != len(proc.Decls) {
		f.locals = make([]*array, len(proc.Decls))
	}
	for i, d := range proc.Decls {
		if d.Rank() == 0 {
			continue
		}
		if _, aliased := f.arrays[d.Name]; aliased {
			continue
		}
		a := f.locals[i]
		if a != nil && a.boundsAre(d, sc) {
			clear(a.data)
		} else {
			a = newArray(d, sc)
			f.locals[i] = a
		}
		f.arrays[d.Name] = a
	}
}

// boundsAre reports whether a has the bounds d declares under sc.
func (a *array) boundsAre(d *ir.Decl, sc scalars) bool {
	for k := range d.LB {
		if a.lo[k] != evalAff(d.LB[k], sc) || a.hi[k] != evalAff(d.UB[k], sc) {
			return false
		}
	}
	return true
}

// --- sched.Ops: the reference interpreter ----------------------------------------

func (rx *rankExec) Enter(sf *sched.Frame) {
	pos := sf.Index()
	f := rx.free[pos]
	if f != nil {
		rx.free[pos], f.next = f.next, nil
	} else {
		f = &frame{pos: pos, arrays: map[string]*array{}, fenv: map[string]float64{}}
	}
	f.reset(sf.Proc, rx.sc, rx.actualArrays, rx.actualFloats)
	f.iters = sf.Iters
	f.moved = slices.Grow(f.moved[:0], len(sf.Arrays))[:len(sf.Arrays)]
	for i, name := range sf.Arrays {
		f.moved[i] = f.arrays[name]
	}
	rx.frames = append(rx.frames, f)
	if rx.mainFrame == nil {
		rx.mainFrame = f
	}
	clear(rx.actualArrays)
	clear(rx.actualFloats)
}

func (rx *rankExec) Leave() {
	f := rx.top()
	rx.frames = rx.frames[:len(rx.frames)-1]
	rx.free[f.pos], f.next = f, rx.free[f.pos]
}

func (rx *rankExec) Actual(formal string, arg ir.Expr) {
	if sched.ClassifyArg(arg) == sched.ArgAlias {
		if rx.actualArrays == nil {
			rx.actualArrays = map[string]*array{}
		}
		rx.actualArrays[formal] = rx.top().arrays[arg.(*ir.ArrayRef).Name]
		return
	}
	if rx.actualFloats == nil {
		rx.actualFloats = map[string]float64{}
	}
	rx.actualFloats[formal] = rx.eval(arg)
}

func (rx *rankExec) Scalar(e ir.Expr) float64 { return rx.eval(e) }

func (rx *rankExec) Handled(*sched.Frame, *ir.Loop, int) bool { return false }

func (rx *rankExec) Assign(a *ir.Assign) {
	v := rx.eval(a.RHS)
	rx.flops += flopsOf(a)
	f := rx.top()
	if len(a.LHS.Subs) == 0 {
		f.fenv[a.LHS.Name] = v
		return
	}
	arr := f.arrays[a.LHS.Name]
	if arr == nil {
		panic(fmt.Sprintf("spmd: store to undeclared array %q", a.LHS.Name))
	}
	arr.set(rx.subVals(a.LHS), v)
}

func (rx *rankExec) ReduceInit(reds []sched.Reduction) []float64 {
	s0 := make([]float64, len(reds))
	for i, r := range reds {
		s0[i] = rx.top().fenv[r.Var]
	}
	return s0
}

func (rx *rankExec) ReduceCombine(reds []sched.Reduction, s0 []float64) {
	fenv := rx.top().fenv
	for i, r := range reds {
		fenv[r.Var] = rx.combine(r.Op, fenv[r.Var], s0[i])
	}
}

func (rx *rankExec) subVals(r *ir.ArrayRef) []int {
	p := make([]int, len(r.Subs))
	for k, s := range r.Subs {
		p[k] = evalAff(s.Off, rx.sc)
		if s.Var != "" {
			v, _ := rx.sc.Lookup(s.Var)
			p[k] += s.Coef * v
		}
	}
	return p
}

// provenance, nil outside tests, evaluates operations and constants in eval's
// place (ok false for a leaf) and ends sum reductions: provenance_test.go's seam.
var provenance interface {
	eval(*rankExec, ir.Expr) (float64, bool)
	sum(float64) float64
}

func (rx *rankExec) eval(e ir.Expr) float64 {
	if provenance != nil {
		if v, ok := provenance.eval(rx, e); ok {
			return v
		}
	}
	switch x := e.(type) {
	case ir.FloatConst:
		return x.Val
	case ir.IndexRef:
		v, _ := rx.sc.Lookup(x.Name)
		return float64(v)
	case ir.ParamRef:
		v, _ := rx.sc.Lookup(x.Name)
		return float64(v)
	case ir.ScalarRef:
		if v, ok := rx.top().fenv[x.Name]; ok {
			return v
		}
		if v, ok := rx.sc.Lookup(x.Name); ok {
			return float64(v) // integer formal read as a value
		}
		return 0
	case *ir.ArrayRef:
		arr := rx.top().arrays[x.Name]
		if arr == nil {
			panic(fmt.Sprintf("spmd: read of undeclared array %q", x.Name))
		}
		return arr.get(rx.subVals(x))
	case *ir.Bin:
		l, r := rx.eval(x.L), rx.eval(x.R)
		switch x.Op {
		case '+':
			return l + r
		case '-':
			return l - r
		case '*':
			return l * r
		case '/':
			return l / r
		}
	case *ir.Intrinsic:
		args := make([]float64, len(x.Args))
		for i, a := range x.Args {
			args[i] = rx.eval(a)
		}
		switch x.Name {
		case "sqrt":
			return math.Sqrt(args[0])
		case "exp":
			return math.Exp(args[0])
		case "sin":
			return math.Sin(args[0])
		case "cos":
			return math.Cos(args[0])
		case "log":
			return math.Log(args[0])
		case "abs":
			return math.Abs(args[0])
		case "min":
			return math.Min(args[0], args[1])
		case "max":
			return math.Max(args[0], args[1])
		case "mod":
			return math.Mod(args[0], args[1])
		case "pow":
			return math.Pow(args[0], args[1])
		}
	}
	panic(fmt.Sprintf("spmd: cannot evaluate %v", e))
}

// --- the machine side of a transfer plan (sched.Ops, all engines) -------------------
//
// Tags come from the walker's block counter, which advances identically
// on every rank.  Under the shared-memory backend the same plans run
// with no message traffic: Send publishes a rendezvous token per
// outgoing transfer (pointing at this rank's own array storage), Recv
// awaits the producer's token, copies straight from its array and
// acknowledges, and Drain blocks until every published token has been
// pulled, so no later write can race a lagging consumer.  Direct pulls
// are safe because within a one-kind plan the regions a rank sources and
// the regions it receives are disjoint (read-comm sources lie inside the
// owner's local box and targets outside the reader's; write-backs are
// the mirror image), and a wavefront strip is written once: the
// producer published it after computing it, and its later overwrites
// wait in the Drain that ends the wavefront — outside the strip loop, so
// the pipeline itself stays fully overlapped.

func (rx *rankExec) Send(plan []sched.Transfer, base int) {
	rx.flushFlops()
	f := rx.top()
	for i, tr := range plan {
		if tr.From != rx.Me {
			continue
		}
		if rx.th != nil {
			rx.th.Publish(tr.To, base+i, int(tr.Bytes()), f.moved[tr.Slot])
			rx.pubArray, rx.pubElems = tr.Array, int(tr.Elems)
			continue
		}
		rx.payload = packPayload(slices.Grow(rx.payload[:0], int(tr.Elems)), f.moved[tr.Slot], tr.Boxes)
		rx.rk.Send(tr.To, base+i, rx.payload)
	}
}

func (rx *rankExec) Recv(plan []sched.Transfer, base int) {
	rx.flushFlops()
	f := rx.top()
	for i, tr := range plan {
		if tr.To != rx.Me {
			continue
		}
		rx.rk.Holding(tr.Array, int(tr.Elems))
		if rx.th != nil {
			src := rx.th.Await(tr.From, base+i).(*array)
			pullPayload(f.moved[tr.Slot], src, tr.Boxes)
			rx.th.Ack(tr.From, int(tr.Bytes()))
			continue
		}
		data := rx.rk.Recv(tr.From, base+i)
		unpackPayload(data, f.moved[tr.Slot], tr.Boxes)
		rx.rk.Recycle(data)
	}
}

// Drain is a no-op on the message-passing backend (Send copied the data).
func (rx *rankExec) Drain() {
	if rx.th != nil {
		rx.rk.Holding(rx.pubArray, rx.pubElems)
		rx.th.Drain()
	}
}
