package analysis

import (
	"fmt"

	"dhpf/internal/ir"
	"dhpf/internal/sched"
)

// Cost is Predict's output: the counters the virtual machines would
// report, derived without executing anything.  For the message backend
// SentMsgs/SentBytes/RecvMsgs mirror mpsim's per-rank counters; for the
// shared-memory backends Pulls/PulledBytes/Barriers mirror the shm
// team's counters and SentMsgs/SentBytes carry the hybrid layout's
// outer traffic (zero for pure shm), exactly like the synthesized
// Machine view the executor returns.
type Cost struct {
	Ranks   int    `json:"ranks"`
	Backend string `json:"backend"`

	Flops     []float64 `json:"flops"`
	SentMsgs  []int64   `json:"sent_msgs"`
	SentBytes []int64   `json:"sent_bytes"`
	RecvMsgs  []int64   `json:"recv_msgs"`

	Pulls       []int64 `json:"pulls,omitempty"`
	PulledBytes []int64 `json:"pulled_bytes,omitempty"`
	Barriers    int64   `json:"barriers,omitempty"`

	// Exact is false when the program contains a condition the static
	// walk cannot decide (a scalar carrying a computed value); the
	// counters are then a deterministic best effort, not a guarantee.
	Exact bool `json:"exact"`
}

// TotalFlops sums the per-rank flop counters.
func (c *Cost) TotalFlops() float64 {
	var t float64
	for _, f := range c.Flops {
		t += f
	}
	return t
}

// TotalMessages sums the per-rank sent-message counters.
func (c *Cost) TotalMessages() int64 {
	var t int64
	for _, m := range c.SentMsgs {
		t += m
	}
	return t
}

// TotalBytes sums the per-rank sent-byte counters.
func (c *Cost) TotalBytes() int64 {
	var t int64
	for _, b := range c.SentBytes {
		t += b
	}
	return t
}

// TotalPulled sums the per-rank pulled-byte counters (shm backends).
func (c *Cost) TotalPulled() int64 {
	var t int64
	for _, b := range c.PulledBytes {
		t += b
	}
	return t
}

// Predict statically derives the execution counters of the compiled
// program: per-rank flops, messages and bytes (message backend), pulls,
// pulled bytes and barriers (shared-memory backends).  It is the rank
// schedule's walker — the one the reference interpreter runs on, so same
// iteration sets, same event placements, same strip-mining by
// construction — with ops that count instead of evaluating, and that
// bulk-count the schedule's compute nests with set cardinalities.  The
// result is integer-equal to the measured counters on affine programs
// (the exactness invariant; see the differential tests).  backend is the
// canonical name ("mp", "shm" or "hybrid"); empty means "mp".
func Predict(s *sched.Schedule, backend string) (*Cost, error) {
	cost, groups, err := newCost(s, backend)
	if err != nil {
		return nil, err
	}
	pure := map[*ir.Loop]bool{}
	for me := 0; me < cost.Ranks; me++ {
		c := &counter{cost: cost, mp: cost.Backend == "mp", groups: groups, pure: pure}
		c.w = sched.NewWalker(s, me, c)
		c.w.Run()
		c.done()
	}
	return cost, nil
}

// newCost validates the backend and the schedule and returns zeroed
// counters for it, with the hybrid layout's groups (nil on the other
// backends: no transfer crosses groups).
func newCost(s *sched.Schedule, backend string) (*Cost, []int, error) {
	if backend == "" {
		backend = "mp"
	}
	switch backend {
	case "mp", "shm", "hybrid":
	default:
		return nil, nil, fmt.Errorf("analysis: unknown backend %q", backend)
	}
	if err := s.Check(); err != nil {
		return nil, nil, fmt.Errorf("analysis: %w", err)
	}
	p := s.Grid.Size()
	cost := &Cost{
		Ranks:   p,
		Backend: backend,
		Flops:   make([]float64, p),

		SentMsgs:  make([]int64, p),
		SentBytes: make([]int64, p),
		RecvMsgs:  make([]int64, p),
		Exact:     true,
	}
	var groups []int
	if backend == "hybrid" {
		groups = s.Grid.Groups()
	}
	if backend != "mp" {
		cost.Pulls = make([]int64, p)
		cost.PulledBytes = make([]int64, p)
	}
	return cost, groups, nil
}

// counter is one rank's counting sched.Ops.  It counts the transfers
// of each plan its walker evaluates that its rank takes part in; pure is
// the per-loop memo that gates bulk counting, shared by every rank walk
// Predict runs one after another.  A counter writes only its own rank's
// slots of cost; barriers and inexact are its share of the run-wide
// fields, which done folds in.
type counter struct {
	w        *sched.Walker
	cost     *Cost
	mp       bool
	groups   []int
	pure     map[*ir.Loop]bool
	barriers int64
	inexact  bool
}

func (c *counter) done() {
	c.cost.Barriers += c.barriers
	if c.inexact {
		c.cost.Exact = false
	}
}

// Value state does not exist here: activations and value actuals carry
// nothing to count.
func (c *counter) Enter(*sched.Frame)     {}
func (c *counter) Leave()                 {}
func (c *counter) Actual(string, ir.Expr) {}
func (c *counter) Drain()                 {}

func (c *counter) Assign(a *ir.Assign) { c.cost.Flops[c.w.Me] += FlopsOf(a) }

// Scalar evaluates the expression forms a static walk can decide.  An
// expression that reads a computed scalar value degrades Exact and
// evaluates with that scalar as zero — deterministically, so repeated
// Predicts agree.
func (c *counter) Scalar(e ir.Expr) float64 {
	v, ok := c.evalScalar(e)
	if !ok {
		c.inexact = true
	}
	return v
}

func (c *counter) evalScalar(e ir.Expr) (float64, bool) {
	switch x := e.(type) {
	case ir.FloatConst:
		return x.Val, true
	case ir.IndexRef:
		v, _ := c.w.Lookup(x.Name)
		return float64(v), true
	case ir.ParamRef:
		v, _ := c.w.Lookup(x.Name)
		return float64(v), true
	case ir.ScalarRef:
		if v, ok := c.w.Lookup(x.Name); ok {
			return float64(v), true // integer formal read as a value
		}
		return 0, false
	case *ir.Bin:
		l, okl := c.evalScalar(x.L)
		r, okr := c.evalScalar(x.R)
		ok := okl && okr
		switch x.Op {
		case '+':
			return l + r, ok
		case '-':
			return l - r, ok
		case '*':
			return l * r, ok
		case '/':
			return l / r, ok
		}
	}
	return 0, false
}

// Each reduction finalization is one collective: a barrier-priced
// AllReduce on the shm team, messageless on the message machine.
func (c *counter) ReduceInit([]sched.Reduction) []float64 { return nil }

func (c *counter) ReduceCombine(reds []sched.Reduction, _ []float64) {
	if !c.mp {
		c.barriers += int64(len(reds))
	}
}

// Send and Recv count this rank's side of a plan: messages on the
// message machine; on a shm team pulls, plus — for a hybrid layout —
// the outer-level message a cross-group pull stands for.
func (c *counter) Send(plan []sched.Transfer, _ int) {
	me := c.w.Me
	for _, tr := range plan {
		if tr.From == me && (c.mp || c.groups != nil && c.groups[tr.From] != c.groups[tr.To]) {
			c.cost.SentMsgs[me]++
			c.cost.SentBytes[me] += tr.Bytes()
		}
	}
}

func (c *counter) Recv(plan []sched.Transfer, _ int) {
	me := c.w.Me
	for _, tr := range plan {
		switch {
		case tr.To != me:
		case c.mp:
			c.cost.RecvMsgs[me]++
		default:
			c.cost.Pulls[me]++
			c.cost.PulledBytes[me] += tr.Bytes()
		}
	}
}

// Handled bulk-counts compute nests that contain no conditionals and no
// triangular bounds: for such a subtree the executed instances of every
// assignment are exactly the statement's iteration set clamped to the
// visited ranges, so one Card per assignment replaces the walk.
func (c *counter) Handled(f *sched.Frame, l *ir.Loop, depth int) bool {
	bulk, ok := c.pure[l]
	if !ok {
		bulk = f.Loop(l).ComputeNest && bulkable(l)
		c.pure[l] = bulk
	}
	if bulk {
		c.bulkCount(f, l, depth)
	}
	return bulk
}

// bulkable reports whether a compute nest can be counted in closed form.
// It is binding-independent: it looks only at statement kinds and which
// variables the bounds reference.
func bulkable(l *ir.Loop) bool {
	// Collect the subtree's own loop variables; any bound referencing
	// one makes ranges iteration-dependent (triangular nests), which
	// bulk counting does not model.
	subVars := map[string]bool{}
	var loops []*ir.Loop
	ok := true
	ir.Walk([]ir.Stmt{l}, func(s ir.Stmt, _ []*ir.Loop) bool {
		switch st := s.(type) {
		case *ir.Loop:
			subVars[st.Var] = true
			loops = append(loops, st)
		case *ir.IfStmt:
			ok = false
		}
		return true
	})
	if !ok {
		return false
	}
	for _, m := range loops {
		for _, b := range []ir.AffExpr{m.Lo, m.Hi} {
			for _, t := range b.Terms {
				if subVars[t.Name] {
					return false
				}
			}
		}
	}
	return true
}

// bulkCount adds the flops of every assignment in the subtree: the
// statement's iteration set, with outer dimensions pinned to the
// current binding and subtree dimensions clamped to their visited
// ranges, counts executed instances exactly.
func (c *counter) bulkCount(f *sched.Frame, l *ir.Loop, depth int) {
	ir.Walk([]ir.Stmt{l}, func(s ir.Stmt, _ []*ir.Loop) bool {
		a, isAssign := s.(*ir.Assign)
		if !isAssign {
			return true
		}
		set := f.Iters[a.ID]
		nest := f.Nest[a.ID]
		for k, m := range nest {
			at, _ := c.w.Lookup(m.Var)
			lo, hi := at, at
			if k >= depth {
				lo, hi = c.w.Range(m)
				if m.Step < 0 {
					lo, hi = hi, lo // direction does not matter for counting
				}
				if lo > hi {
					return true // visited range empty: zero instances
				}
			}
			set = set.ClampDim(k, lo, hi)
			if set.IsEmpty() {
				return true
			}
		}
		c.cost.Flops[c.w.Me] += FlopsOf(a) * float64(set.Card())
		return true
	})
}
