// Package comm implements dhpf's communication analysis: it turns CP
// decisions into communication events (non-local reads and non-owner
// write-backs), vectorizes them to the outermost legal loop level,
// coalesces messages per processor pair, and applies the paper's §7
// data-availability analysis to delete non-local reads whose values the
// reading processor itself produced earlier.
package comm

import (
	"fmt"
	"slices"
	"strconv"

	"dhpf/internal/cp"
	"dhpf/internal/dep"
	"dhpf/internal/hpf"
	"dhpf/internal/ir"
	"dhpf/internal/iset"
)

// Kind distinguishes the two communication directions of the dhpf model
// (§2): fetching non-local values read, and returning non-owner writes
// to the owner.
type Kind int

const (
	ReadComm Kind = iota
	WriteBack
)

func (k Kind) String() string {
	if k == ReadComm {
		return "read"
	}
	return "writeback"
}

// Event is one communication requirement attached to a statement.
type Event struct {
	Kind Kind
	Stmt *ir.Assign
	Ref  *ir.ArrayRef // the non-local reference (RHS ref or LHS)
	Nest []*ir.Loop   // enclosing loops, outermost first

	// Depth is the placement level: the event executes inside
	// Nest[0:Depth] and is vectorized across Nest[Depth:].  Depth 0 means
	// fully hoisted out of the nest.
	Depth int

	// Pipelined marks events that remain inside a loop carrying a
	// processor-crossing dependence: the wavefront case.  CarriedBy is
	// that loop.  Strip is the outermost loop inside it that carries no
	// dependence but input ones, nil when there is none: a wavefront may
	// be cut into strips over it.
	Pipelined bool
	CarriedBy *ir.Loop
	Strip     *ir.Loop

	// Eliminated marks events removed by data-availability analysis,
	// with the reason recorded.
	Eliminated bool
	Reason     string
}

func (e *Event) String() string {
	s := append(make([]byte, 0, 96), e.Kind.String()...)
	s = e.Ref.AppendText(append(s, " comm for "...))
	s = strconv.AppendInt(append(s, " in stmt "...), int64(e.Stmt.ID), 10)
	s = strconv.AppendInt(append(s, " (depth "...), int64(e.Depth), 10)
	if e.Pipelined {
		s = append(append(s, ", pipelined on "...), e.CarriedBy.Var...)
	}
	if e.Eliminated {
		s = append(append(s, ", ELIMINATED: "...), e.Reason...)
	}
	return string(append(s, ')'))
}

// Analysis is the communication plan for one procedure.
type Analysis struct {
	Proc   *ir.Procedure
	Events []*Event
	Notes  []string
}

// Restore rebuilds an Analysis from previously-computed events and notes
// — the thaw path of incremental compilation.  The elimination phases
// (ApplyAvailability, ApplyWritebackElim) must not be run on it: a
// restored plan is already post-elimination by construction, since
// artifacts are frozen at the end of the communication passes.
func Restore(proc *ir.Procedure, events []*Event, notes []string) *Analysis {
	return &Analysis{Proc: proc, Events: events, Notes: notes}
}

// Live returns the events not eliminated by availability analysis.
func (a *Analysis) Live() []*Event {
	var out []*Event
	for _, e := range a.Events {
		if !e.Eliminated {
			out = append(out, e)
		}
	}
	return out
}

// Analyze runs every communication phase in pipeline order: BuildEvents,
// ApplyAvailability, ApplyWritebackElim.
func Analyze(ctx *cp.Context, proc *ir.Procedure, sel *cp.Selection) *Analysis {
	out := BuildEvents(ctx, proc, sel)
	ApplyAvailability(ctx, sel, out)
	ApplyWritebackElim(ctx, sel, out)
	return out
}

// BuildEvents constructs the raw communication plan for a procedure:
// read and write-back events for every possibly-non-local reference,
// each vectorized to the outermost legal loop level and flagged when it
// must be pipelined.  Dependences are ctx.Deps(proc), the dependences of
// the body as loop distribution left it.
func BuildEvents(ctx *cp.Context, proc *ir.Procedure, sel *cp.Selection) *Analysis {
	out := &Analysis{Proc: proc}
	deps := ctx.Deps(proc)

	asn := ir.Assignments(proc.Body)
	for _, a := range asn {
		stmtCP := sel.CPOf(a.Assign.ID)
		// Read events.
		for _, r := range ir.Refs(a.Assign.RHS) {
			if ctx.Layout(proc, r.Name) == nil || len(r.Subs) == 0 {
				continue
			}
			if !mayBeNonLocal(ctx, proc, a, r, stmtCP) {
				continue
			}
			e := &Event{Kind: ReadComm, Stmt: a.Assign, Ref: r, Nest: a.Nest}
			placeRead(e, deps)
			out.Events = append(out.Events, e)
		}
		// Write-back events.
		if ctx.Layout(proc, a.Assign.LHS.Name) != nil && len(a.Assign.LHS.Subs) > 0 {
			if mayBeNonLocal(ctx, proc, a, a.Assign.LHS, stmtCP) {
				e := &Event{Kind: WriteBack, Stmt: a.Assign, Ref: a.Assign.LHS, Nest: a.Nest}
				placeWrite(ctx, proc, sel, e, deps)
				out.Events = append(out.Events, e)
			}
		}
	}

	markPipelined(ctx, proc, out, deps)
	return out
}

// ApplyAvailability runs §7 data-availability elimination on a built
// plan (see applyAvailability).
func ApplyAvailability(ctx *cp.Context, sel *cp.Selection, a *Analysis) {
	applyAvailability(ctx, a.Proc, sel, a, ctx.Deps(a.Proc))
}

// ApplyWritebackElim eliminates write-backs made redundant by partial
// replication (see applyWritebackRedundancy).
func ApplyWritebackElim(ctx *cp.Context, sel *cp.Selection, a *Analysis) {
	applyWritebackRedundancy(ctx, a.Proc, sel, a)
}

// applyWritebackRedundancy eliminates write-back events whose non-owner
// writes only cover elements the owner also computes itself via the same
// statement.  Since both ranks execute the identical statement instance
// on consistent inputs, the owner's copy is already up to date and the
// message is redundant.  This is what makes partially-replicated
// boundary computation (NEW/LOCALIZE CPs) communication-free.
func applyWritebackRedundancy(ctx *cp.Context, proc *ir.Procedure, sel *cp.Selection, a *Analysis) {
	grid, err := ctx.Grid()
	if err != nil {
		return
	}
	for _, e := range a.Events {
		if e.Kind != WriteBack || e.Eliminated {
			continue
		}
		layout := ctx.Layout(proc, e.Ref.Name)
		if layout == nil {
			continue
		}
		vars := ir.NestVars(e.Nest)
		c := sel.CPOf(e.Stmt.ID)
		// Precompute what each rank writes with this statement.
		written := make([]iset.Set, grid.Size())
		for r := 0; r < grid.Size(); r++ {
			iters := ctx.IterSet(proc, e.Stmt.ID, c, e.Nest, r)
			written[r] = cp.RefDataSet(e.Ref, vars, iters, ctx.Bind.Params).IntersectBox(layout.Space())
		}
		ok := true
	check:
		for t := 0; t < grid.Size(); t++ {
			nl := written[t].SubtractBox(layout.LocalBox(t))
			if nl.IsEmpty() {
				continue
			}
			for o := 0; o < grid.Size(); o++ {
				if o == t {
					continue
				}
				piece := nl.IntersectBox(layout.LocalBox(o))
				if piece.IsEmpty() {
					continue
				}
				if !piece.SubsetOf(written[o]) {
					ok = false
					break check
				}
			}
		}
		if ok {
			e.Eliminated = true
			e.Reason = "owner computes the same elements (partial replication)"
			a.Notes = append(a.Notes, e.String())
		}
	}
}

// mayBeNonLocal checks whether, on any rank, the statement's iteration
// set touches data of the reference the rank does not own.
func mayBeNonLocal(ctx *cp.Context, proc *ir.Procedure, a ir.AssignInNest, r *ir.ArrayRef, c *cp.CP) bool {
	grid, err := ctx.Grid()
	if err != nil {
		return false
	}
	for rank := 0; rank < grid.Size(); rank++ {
		if !ctx.NonLocal(proc, a.Assign.ID, c, a.Nest, r, rank).IsEmpty() {
			return true
		}
	}
	return false
}

// depDepth converts one dependence into a placement depth for an event
// in nest: a loop-independent dependence pins the communication inside
// every shared loop (the value moves within one iteration); a carried
// dependence pins it inside the carrying loop only — the value moves
// between iterations of that loop, so communication hoisted just inside
// it is still correct and maximally vectorized.
func depDepth(nest []*ir.Loop, d *dep.Dependence) int {
	shared := sharedDepth(nest, d.CommonNest)
	if d.LoopIndependent() {
		return shared
	}
	return min(shared, d.Level)
}

// placeRead computes the placement depth of a read event from the flow
// dependences reaching it (the value must exist before it is fetched).
// No reaching write ⇒ fully hoisted before the nest.
func placeRead(e *Event, deps []*dep.Dependence) {
	depth := 0
	for _, d := range deps {
		if d.Kind != dep.Flow || d.Dst != e.Stmt {
			continue
		}
		if d.DstRef == nil || !d.DstRef.Eq(e.Ref) {
			continue
		}
		depth = max(depth, depDepth(e.Nest, d))
	}
	e.Depth = depth
}

// placeWrite computes the placement depth of a write-back from the flow
// dependences leaving it: it must reach the owner before any consumer
// that is not guaranteed to run on the writing processor itself.  A
// consumer with the same data partition reached without crossing a
// distributed dimension reads the writer's own local copy (the §7
// availability situation), so it does not constrain the write-back.
// Without any constraining consumer the write-back is deferred past the
// nest.
func placeWrite(ctx *cp.Context, proc *ir.Procedure, sel *cp.Selection, e *Event, deps []*dep.Dependence) {
	depth := 0
	srcKey := cp.PartitionKey(ctx, proc, sel.CPOf(e.Stmt.ID))
	for _, d := range deps {
		if d.Kind != dep.Flow || d.Src != e.Stmt {
			continue
		}
		if d.SrcRef == nil || !d.SrcRef.Eq(e.Ref) {
			continue
		}
		if srcKey != "<replicated>" &&
			cp.PartitionKey(ctx, proc, sel.CPOf(d.Dst.ID)) == srcKey &&
			!depCrossesRanks(ctx, proc, d) {
			continue
		}
		depth = max(depth, depDepth(e.Nest, d))
	}
	e.Depth = depth
}

// depCrossesRanks reports whether a dependence can connect iterations
// assigned to different processors: loop-independent dependences between
// same-partition statements stay on one rank; carried dependences cross
// only when the carrying loop's variable indexes a distributed dimension
// of the reference.
func depCrossesRanks(ctx *cp.Context, proc *ir.Procedure, d *dep.Dependence) bool {
	if d.Level == 0 {
		return false
	}
	carrier := d.CommonNest[d.Level-1]
	return crossesPartition(ctx, proc, d, carrier)
}

// sharedDepth counts how many loops of nest form a prefix of common.
func sharedDepth(nest []*ir.Loop, common []*ir.Loop) int {
	n := 0
	for i := 0; i < len(nest) && i < len(common); i++ {
		if nest[i] != common[i] {
			break
		}
		n++
	}
	return n
}

// markPipelined flags events whose placement loop carries a
// processor-crossing flow dependence — the wavefront computations whose
// communication the code generator pipelines at coarse grain.
func markPipelined(ctx *cp.Context, proc *ir.Procedure, a *Analysis, deps []*dep.Dependence) {
	for _, e := range a.Events {
		if e.Depth == 0 || e.Depth > len(e.Nest) {
			continue
		}
		carrier := e.Nest[e.Depth-1]
		for _, d := range deps {
			if d.Kind != dep.Flow || !d.CarriedBy(carrier) {
				continue
			}
			if d.SrcRef.Name != e.Ref.Name {
				continue
			}
			if crossesPartition(ctx, proc, d, carrier) {
				e.Pipelined = true
				e.CarriedBy = carrier
				e.Strip = stripLoop(e.Nest[e.Depth:], deps)
				break
			}
		}
	}
}

// stripLoop returns the outermost of loops that carries no dependence but
// input ones, or nil.
func stripLoop(loops []*ir.Loop, deps []*dep.Dependence) *ir.Loop {
	for _, l := range loops {
		if !slices.ContainsFunc(deps, func(d *dep.Dependence) bool { return d.Kind != dep.Input && d.CarriedBy(l) }) {
			return l
		}
	}
	return nil
}

// crossesPartition reports whether a dependence carried by loop l moves
// data across a distributed dimension boundary: the subscript position
// the loop variable indexes is BLOCK-distributed.
func crossesPartition(ctx *cp.Context, proc *ir.Procedure, d *dep.Dependence, l *ir.Loop) bool {
	layout := ctx.Layout(proc, d.SrcRef.Name)
	if layout == nil || len(d.SrcRef.Subs) != layout.Rank() {
		return false
	}
	for k, s := range d.SrcRef.Subs {
		if s.Var == l.Var && layout.Dims[k].Kind != hpf.Star {
			return true
		}
	}
	return false
}

// --- §7: data availability --------------------------------------------------

// applyAvailability eliminates read events whose non-local data is a
// subset of the non-local data the same processor produced with its last
// preceding write to the array (the value is already locally available).
// Only the *last* reaching write is considered because kill information
// is unavailable — exactly the paper's restriction.
func applyAvailability(ctx *cp.Context, proc *ir.Procedure, sel *cp.Selection, a *Analysis, deps []*dep.Dependence) {
	grid, err := ctx.Grid()
	if err != nil {
		return
	}
	// The write's iteration set needs its full loop nest, not just the
	// prefix shared with the read.
	nestOf := map[int][]*ir.Loop{}
	for _, ain := range ir.Assignments(proc.Body) {
		nestOf[ain.Assign.ID] = ain.Nest
	}
	for _, e := range a.Events {
		if e.Kind != ReadComm {
			continue
		}
		w := lastReachingWrite(e, deps)
		if w == nil {
			continue
		}
		ok := true
		for rank := 0; rank < grid.Size(); rank++ {
			readNL := nonLocalOf(ctx, proc, sel, e.Stmt, e.Nest, e.Ref, rank)
			if readNL.IsEmpty() {
				continue
			}
			writeNL := nonLocalOf(ctx, proc, sel, w.Src, nestOf[w.Src.ID], w.SrcRef, rank)
			if !readNL.SubsetOf(writeNL) {
				ok = false
				break
			}
		}
		if ok {
			e.Eliminated = true
			e.Reason = fmt.Sprintf("available locally: read ⊆ last non-local write of stmt %d", w.Src.ID)
			a.Notes = append(a.Notes, e.String())
		}
	}
}

// lastReachingWrite picks the flow dependence into the event's reference
// whose source executes *last* before the read.  Recency is compared
// lexicographically over the read's loop nest, outermost first: at each
// level the write is either in the same iteration (distance 0, most
// recent), a positive number of iterations back, or — oldest — outside
// the loop entirely (it ran before the loop started in the current outer
// iteration).  Ties break toward the textually later statement.
func lastReachingWrite(e *Event, deps []*dep.Dependence) *dep.Dependence {
	var best *dep.Dependence
	var bestKey []float64
	for _, d := range deps {
		if d.Kind != dep.Flow || d.Dst != e.Stmt {
			continue
		}
		if d.DstRef == nil || !d.DstRef.Eq(e.Ref) {
			continue
		}
		key := recencyKey(e.Nest, d)
		if best == nil || lexLess(key, bestKey) ||
			(lexEq(key, bestKey) && d.Src.ID > best.Src.ID) {
			best, bestKey = d, key
		}
	}
	return best
}

// recencyKey builds the per-level write age of a dependence relative to
// the read's nest: 0 = same iteration, d = d iterations back, +Inf =
// the write ran before this loop began.  Unknown carried distances rank
// as 1 (the typical recurrence; documented assumption, mirroring the
// paper's reliance on dependence analysis for the "last" write).
func recencyKey(nest []*ir.Loop, d *dep.Dependence) []float64 {
	const beforeLoop = 1e18
	key := make([]float64, len(nest))
	shared := sharedDepth(nest, d.CommonNest)
	for l := range key {
		switch {
		case l >= shared:
			key[l] = beforeLoop
		case d.Level == 0 || l < d.Level-1:
			key[l] = 0
		case l == d.Level-1:
			dd := d.Distance[l]
			if !dd.Known {
				key[l] = 1
			} else if dd.D < 0 {
				key[l] = float64(-dd.D)
			} else {
				key[l] = float64(dd.D)
			}
		default:
			// Inside the carried level's previous iteration: latest
			// possible position.
			key[l] = 0
		}
	}
	return key
}

func lexLess(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

func lexEq(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// nonLocalOf computes a reference's non-local data on one rank, given the
// statement the reference sits in (its CP determines the iterations).
func nonLocalOf(ctx *cp.Context, proc *ir.Procedure, sel *cp.Selection, stmt *ir.Assign, nest []*ir.Loop, ref *ir.ArrayRef, rank int) iset.Set {
	return ctx.NonLocal(proc, stmt.ID, sel.CPOf(stmt.ID), nest, ref, rank)
}

// --- transfers ---------------------------------------------------------------

// Transfer is one point-to-point message: src sends the data set of
// array elements to dst.
type Transfer struct {
	Array    string
	From, To int
	Data     iset.Set
}

// Bytes returns the message payload size.
func (t Transfer) Bytes() int64 { return 8 * t.Data.Card() }
