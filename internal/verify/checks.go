package verify

import (
	"fmt"

	"dhpf/internal/comm"
	"dhpf/internal/cp"
	"dhpf/internal/dep"
	"dhpf/internal/hpf"
	"dhpf/internal/ir"
	"dhpf/internal/iset"
)

// checker verifies one procedure.  It re-runs dependence analysis on the
// (post-distribution) body itself, so its placement and availability
// obligations are derived from scratch rather than read off the comm
// package's cached state (ctx.Deps).  Iteration and non-local sets are
// read from the context's derived-set table, which recomputes any row
// whose CP or nest differs from what it was computed for.
type checker struct {
	in   Input
	proc *ir.Procedure
	an   *comm.Analysis
	grid *hpf.Grid
	rep  *Report

	deps   []*dep.Dependence
	asn    []ir.AssignInNest
	nestOf map[int][]*ir.Loop
}

func newChecker(in Input, proc *ir.Procedure, an *comm.Analysis, grid *hpf.Grid, rep *Report) *checker {
	c := &checker{
		in: in, proc: proc, an: an, grid: grid, rep: rep,
		deps:   dep.Analyze(proc.Body),
		asn:    ir.Assignments(proc.Body),
		nestOf: map[int][]*ir.Loop{},
	}
	for _, a := range c.asn {
		c.nestOf[a.Assign.ID] = a.Nest
	}
	return c
}

func (c *checker) run() {
	c.rep.Stmts += len(c.asn)
	c.rep.Events += len(c.an.Events)
	for _, a := range c.asn {
		c.checkCoverage(a)
		c.checkReads(a)
		c.checkWriteback(a)
		if c.shmBackend() {
			c.checkRace(a)
		}
	}
	for _, e := range c.an.Events {
		c.checkPlacement(e)
	}
	c.checkPrivatizedProduction()
	c.checkPrivatize()
}

// shmBackend reports whether the verified program targets a
// shared-memory substrate (the canonical names the passes package
// assigns; verify cannot import passes without a cycle).
func (c *checker) shmBackend() bool {
	return c.in.Backend == "shm" || c.in.Backend == "hybrid"
}

// privatizedBy returns the enclosing loop privatizing the assignment's
// LHS via a NEW or LOCALIZE directive, if any.
func (c *checker) privatizedBy(a ir.AssignInNest) *ir.Loop {
	for _, l := range a.Nest {
		for _, v := range l.New {
			if v == a.Assign.LHS.Name {
				return l
			}
		}
		for _, v := range l.Localize {
			if v == a.Assign.LHS.Name {
				return l
			}
		}
	}
	return nil
}

func (c *checker) diag(d Diagnostic) {
	d.Proc = c.proc.Name
	c.rep.Diagnostics = append(c.rep.Diagnostics, d)
}

func (c *checker) params() map[string]int { return c.in.Ctx.Bind.Params }

// iterSets returns the per-rank iteration sets of an assignment under its
// selected CP.
func (c *checker) iterSets(a ir.AssignInNest) []iset.Set {
	out := make([]iset.Set, c.grid.Size())
	for r := range out {
		out[r] = c.iterSet(a, r)
	}
	return out
}

// iterSet is iterSets on one rank.
func (c *checker) iterSet(a ir.AssignInNest, rank int) iset.Set {
	return c.in.Ctx.IterSet(c.proc, a.Assign.ID, c.in.Sel.CPOf(a.Assign.ID), a.Nest, rank)
}

// nonLocal computes the data of ref a rank touches but does not own when
// the given statement executes under its CP.
func (c *checker) nonLocal(stmt *ir.Assign, nest []*ir.Loop, ref *ir.ArrayRef, rank int) iset.Set {
	return c.in.Ctx.NonLocal(c.proc, stmt.ID, c.in.Sel.CPOf(stmt.ID), nest, ref, rank)
}

// eventsFor finds the events attached to a (statement, reference shape).
func (c *checker) eventsFor(kind comm.Kind, stmt int, ref *ir.ArrayRef) []*comm.Event {
	var out []*comm.Event
	for _, e := range c.an.Events {
		if e.Kind == kind && e.Stmt.ID == stmt && e.Ref.Eq(ref) {
			out = append(out, e)
		}
	}
	return out
}

// --- theorem 1: coverage -----------------------------------------------------

// checkCoverage proves no iteration is lost (the union of per-rank
// iteration sets covers the full iteration space) and that non-idempotent
// work is not silently replicated: reduction statements must partition
// their iterations (overlap double-counts the collective combine), and
// self-accumulating array updates replicated across ranks must carry a
// redundancy cover (the owner computes the identical elements itself).
func (c *checker) checkCoverage(a ir.AssignInNest) {
	id := a.Assign.ID
	// A statement defining a privatized (NEW/LOCALIZE) array is exempt
	// from full-space coverage: §4.1's CP translation deliberately drops
	// defining iterations whose values no use consumes (dead under the
	// directive's liveness assertion).  Its real obligation — every
	// element actually consumed is produced on the consuming rank — is
	// checkPrivatizedProduction's.
	if c.privatizedBy(a) != nil {
		return
	}
	full := iset.FromBox(cp.IterBox(a.Nest, c.params()))
	sets := c.iterSets(a)
	union := iset.EmptySet(full.Rank())
	for _, s := range sets {
		union = union.Union(s)
	}
	if !full.SubsetOf(union) {
		c.diag(Diagnostic{
			Check: CheckCoverage, Severity: Error, Stmt: id,
			Ref: a.Assign.LHS.String(),
			Set: full.Subtract(union).String(),
			Why: fmt.Sprintf("iterations executed by no rank under %s", c.in.Sel.CPOf(id)),
		})
	}
	if c.in.Reductions[id] {
		for r := 0; r < len(sets); r++ {
			for s := r + 1; s < len(sets); s++ {
				ov := sets[r].Intersect(sets[s])
				if !ov.IsEmpty() {
					c.diag(Diagnostic{
						Check: CheckCoverage, Severity: Error, Stmt: id,
						Ref: a.Assign.LHS.String(),
						Set: ov.String(),
						Why: fmt.Sprintf("reduction iterations replicated on ranks %d and %d: partial results double-count in the collective combine", r, s),
					})
					return
				}
			}
		}
		return
	}
	if !c.selfAccumulating(a.Assign) {
		return
	}
	layout := c.in.Ctx.Layout(c.proc, a.Assign.LHS.Name)
	if layout == nil || len(a.Assign.LHS.Subs) == 0 {
		return
	}
	written := c.writtenSets(a, layout)
	for r := 0; r < len(written); r++ {
		for s := r + 1; s < len(written); s++ {
			ov := written[r].Intersect(written[s])
			if ov.IsEmpty() {
				continue
			}
			if c.redundantWrites(layout, written) {
				return // sanctioned partial replication: identical instances
			}
			c.diag(Diagnostic{
				Check: CheckCoverage, Severity: Error, Stmt: id,
				Ref: a.Assign.LHS.String(),
				Set: ov.String(),
				Why: fmt.Sprintf("self-accumulating write replicated on ranks %d and %d without a redundancy cover: the update applies more than once", r, s),
			})
			return
		}
	}
}

// selfAccumulating reports whether the statement reads the element it
// writes (a(i) = a(i) ⊕ …), making replicated execution non-idempotent.
func (c *checker) selfAccumulating(a *ir.Assign) bool {
	for _, r := range ir.Refs(a.RHS) {
		if r.Eq(a.LHS) {
			return true
		}
	}
	return false
}

// writtenSets computes, per rank, the element set the statement writes.
func (c *checker) writtenSets(a ir.AssignInNest, layout *hpf.Layout) []iset.Set {
	vars := ir.NestVars(a.Nest)
	sets := c.iterSets(a)
	out := make([]iset.Set, len(sets))
	for r := range sets {
		out[r] = cp.RefDataSet(a.Assign.LHS, vars, sets[r], c.params()).IntersectBox(layout.Space())
	}
	return out
}

// redundantWrites re-derives the write-back redundancy condition: every
// element a rank writes outside its own partition is also written by its
// owner with the same statement, so all replicated instances compute the
// identical value and no copy is stale.
func (c *checker) redundantWrites(layout *hpf.Layout, written []iset.Set) bool {
	for t := range written {
		nl := written[t].SubtractBox(layout.LocalBox(t))
		if nl.IsEmpty() {
			continue
		}
		for o := range written {
			if o == t {
				continue
			}
			piece := nl.IntersectBox(layout.LocalBox(o))
			if piece.IsEmpty() {
				continue
			}
			if !piece.SubsetOf(written[o]) {
				return false
			}
		}
	}
	return true
}

// --- theorem 5: race freedom (shared-memory backends) ------------------------

// checkRace proves the shared-memory backend's write-disjointness
// obligation: within one barrier phase (a statement's execution between
// its surrounding synchronization points), no two ranks write the same
// element of a distributed array.  The message machine tolerates write
// overlap — duplicate write-back deliveries serialize in the receiver's
// mailbox — but on a shared address space the same overlap is a data
// race.  Overlap is sanctioned only when the redundancy proof shows
// every replicated instance computes the identical value (same-value
// stores cannot produce a torn result under the barrier protocol, and
// the backend orders them with its rendezvous acks); that case is
// recorded as an INFO proof.  Privatized (NEW/LOCALIZE) arrays are
// exempt: the backend gives each thread a private copy, which is
// exactly the privatization obligation the directive asserts.
func (c *checker) checkRace(a ir.AssignInNest) {
	lhs := a.Assign.LHS
	layout := c.in.Ctx.Layout(c.proc, lhs.Name)
	if layout == nil || len(lhs.Subs) == 0 {
		return
	}
	if c.privatizedBy(a) != nil {
		return // thread-private under shm; production coverage is checked separately
	}
	if c.in.Reductions[a.Assign.ID] {
		return // per-rank partials are private until the collective combine
	}
	written := c.writtenSets(a, layout)
	for r := 0; r < len(written); r++ {
		for s := r + 1; s < len(written); s++ {
			ov := written[r].Intersect(written[s])
			if ov.IsEmpty() {
				continue
			}
			if c.redundantWrites(layout, written) {
				c.diag(Diagnostic{
					Check: CheckRace, Severity: Info, Stmt: a.Assign.ID,
					Ref: lhs.String(),
					Why: fmt.Sprintf("write overlap between ranks %d and %d re-proven benign: every replicated instance computes the identical value", r, s),
				})
				return
			}
			c.diag(Diagnostic{
				Check: CheckRace, Severity: Error, Stmt: a.Assign.ID,
				Ref: lhs.String(), Set: ov.String(),
				Why: fmt.Sprintf("ranks %d and %d write the same elements in one barrier phase: a data race under the shared-memory backend", r, s),
			})
			return
		}
	}
}

// --- theorem 2: communication completeness -----------------------------------

// checkReads proves every non-local read is satisfied: each RHS reference
// whose data-owner set differs from the executing ranks must carry a live
// read event, or an availability proof — re-derived here from the fresh
// dependence analysis — that the reading rank itself produced the values
// with an earlier write.
func (c *checker) checkReads(a ir.AssignInNest) {
	var seen []*ir.ArrayRef
refs:
	for _, ref := range ir.Refs(a.Assign.RHS) {
		if c.in.Ctx.Layout(c.proc, ref.Name) == nil || len(ref.Subs) == 0 {
			continue
		}
		for _, s := range seen {
			if s.Eq(ref) {
				continue refs
			}
		}
		seen = append(seen, ref)

		nl := make([]iset.Set, c.grid.Size())
		all := iset.EmptySet(len(ref.Subs))
		for r := range nl {
			nl[r] = c.nonLocal(a.Assign, a.Nest, ref, r)
			all = all.Union(nl[r])
		}
		if all.IsEmpty() {
			continue
		}
		events := c.eventsFor(comm.ReadComm, a.Assign.ID, ref)
		if len(events) == 0 {
			c.diag(Diagnostic{
				Check: CheckComm, Severity: Error, Stmt: a.Assign.ID,
				Ref: ref.String(), Set: all.String(),
				Why: "non-local read is covered by no communication event: ranks would use stale or unallocated values",
			})
			continue
		}
		live := false
		for _, e := range events {
			if !e.Eliminated {
				live = true
				break
			}
		}
		if live {
			continue // satisfied by a real message; placement checked separately
		}
		if src, ok := c.proveAvailability(a.Assign, ref, nl); ok {
			c.diag(Diagnostic{
				Check: CheckComm, Severity: Info, Stmt: a.Assign.ID,
				Ref: ref.String(),
				Why: fmt.Sprintf("eliminated read re-proven: every rank produced the non-local values locally with stmt %d", src),
			})
			continue
		}
		c.diag(Diagnostic{
			Check: CheckComm, Severity: Error, Stmt: a.Assign.ID,
			Ref: ref.String(), Set: all.String(),
			Why: "read event eliminated but no earlier local write covers the non-local data on every rank",
		})
	}
}

// proveAvailability searches the re-derived flow dependences into the
// reference for a producing statement whose non-local writes cover the
// read's non-local needs on every rank — the reader already holds the
// values it would otherwise fetch.  Accepting *any* covering producer is
// deliberately more permissive than §7's last-reaching-write rule, so a
// legitimate elimination is never flagged; like the paper, the proof
// assumes no intervening kill (dependence analysis provides no kill
// information).
func (c *checker) proveAvailability(stmt *ir.Assign, ref *ir.ArrayRef, readNL []iset.Set) (srcStmt int, ok bool) {
	for _, d := range c.deps {
		if d.Kind != dep.Flow || d.Dst != stmt {
			continue
		}
		if d.DstRef == nil || !d.DstRef.Eq(ref) {
			continue
		}
		covered := true
		for rank := range readNL {
			if readNL[rank].IsEmpty() {
				continue
			}
			writeNL := c.nonLocal(d.Src, c.nestOf[d.Src.ID], d.SrcRef, rank)
			if !readNL[rank].SubsetOf(writeNL) {
				covered = false
				break
			}
		}
		if covered {
			return d.Src.ID, true
		}
	}
	return 0, false
}

// --- theorem 3: writeback soundness ------------------------------------------

// checkWriteback proves every non-owner write reaches its owner: a live
// write-back event, or a re-derived proof that the owner computes the
// identical elements itself (partial replication).
func (c *checker) checkWriteback(a ir.AssignInNest) {
	lhs := a.Assign.LHS
	layout := c.in.Ctx.Layout(c.proc, lhs.Name)
	if layout == nil || len(lhs.Subs) == 0 {
		return
	}
	all := iset.EmptySet(len(lhs.Subs))
	for r := 0; r < c.grid.Size(); r++ {
		all = all.Union(c.nonLocal(a.Assign, a.Nest, lhs, r))
	}
	if all.IsEmpty() {
		return
	}
	events := c.eventsFor(comm.WriteBack, a.Assign.ID, lhs)
	if len(events) == 0 {
		c.diag(Diagnostic{
			Check: CheckWriteback, Severity: Error, Stmt: a.Assign.ID,
			Ref: lhs.String(), Set: all.String(),
			Why: "non-owner writes never return to the owner: the owner's copy goes stale",
		})
		return
	}
	for _, e := range events {
		if !e.Eliminated {
			return // a real finalization message exists
		}
	}
	if c.redundantWrites(layout, c.writtenSets(a, layout)) {
		c.diag(Diagnostic{
			Check: CheckWriteback, Severity: Info, Stmt: a.Assign.ID,
			Ref: lhs.String(),
			Why: "eliminated write-back re-proven: the owner computes the identical elements itself",
		})
		return
	}
	c.diag(Diagnostic{
		Check: CheckWriteback, Severity: Error, Stmt: a.Assign.ID,
		Ref: lhs.String(), Set: all.String(),
		Why: "write-back eliminated but the owner does not compute every element written remotely",
	})
}

// --- theorem 4: pipeline legality --------------------------------------------

// checkPlacement proves a live event's placement depth respects the
// dependences it exists to serve, and that processor-crossing carried
// dependences occur only under consistently-marked Pipelined events.
func (c *checker) checkPlacement(e *comm.Event) {
	if e.Depth < 0 || e.Depth > len(e.Nest) {
		c.diag(Diagnostic{
			Check: CheckPipeline, Severity: Error, Stmt: e.Stmt.ID,
			Ref: e.Ref.String(),
			Why: fmt.Sprintf("malformed placement: depth %d outside nest of %d loops", e.Depth, len(e.Nest)),
		})
		return
	}
	if e.Eliminated {
		return // never executes
	}
	req := c.requiredDepth(e)
	if e.Depth < req {
		role := "values are fetched before the statement that produces them"
		if e.Kind == comm.WriteBack {
			role = "the owner receives the value after a consumer already needed it"
		}
		c.diag(Diagnostic{
			Check: CheckPipeline, Severity: Error, Stmt: e.Stmt.ID,
			Ref: e.Ref.String(),
			Why: fmt.Sprintf("%s event placed at depth %d but its dependences require depth %d: %s", e.Kind, e.Depth, req, role),
		})
	}
	if e.Depth == 0 {
		if e.Pipelined {
			c.diag(Diagnostic{
				Check: CheckPipeline, Severity: Error, Stmt: e.Stmt.ID,
				Ref: e.Ref.String(),
				Why: "event marked pipelined but hoisted out of every loop: no loop carries its dependence",
			})
		}
		return
	}
	carrier := e.Nest[e.Depth-1]
	crossing := c.carriesCrossing(carrier, e.Ref.Name)
	switch {
	case crossing && !e.Pipelined:
		c.diag(Diagnostic{
			Check: CheckPipeline, Severity: Error, Stmt: e.Stmt.ID,
			Ref: e.Ref.String(),
			Why: fmt.Sprintf("placement loop %s carries a processor-crossing flow dependence on %s but the event is not pipelined: ranks would race the wavefront", carrier.Var, e.Ref.Name),
		})
	case e.Pipelined && e.CarriedBy != carrier:
		name := "<nil>"
		if e.CarriedBy != nil {
			name = e.CarriedBy.Var
		}
		c.diag(Diagnostic{
			Check: CheckPipeline, Severity: Error, Stmt: e.Stmt.ID,
			Ref: e.Ref.String(),
			Why: fmt.Sprintf("pipelined event's CarriedBy loop %s is not its placement loop %s: the pipeline serializes the wrong dimension", name, carrier.Var),
		})
	case e.Pipelined && !crossing:
		c.diag(Diagnostic{
			Check: CheckPipeline, Severity: Warning, Stmt: e.Stmt.ID,
			Ref: e.Ref.String(),
			Why: fmt.Sprintf("event marked pipelined but loop %s carries no processor-crossing flow dependence on %s", carrier.Var, e.Ref.Name),
		})
	}
}

// requiredDepth re-derives the minimum legal placement depth of an event
// from the fresh dependence analysis, mirroring the placement rules the
// comm package uses: a read must sit inside every loop a reaching flow
// dependence pins (loop-independent ⇒ all shared loops; carried ⇒ the
// carrying loop); a write-back must sit inside every loop a consuming
// flow dependence pins, except consumers on the same partition reached
// without crossing a distributed dimension.
func (c *checker) requiredDepth(e *comm.Event) int {
	depth := 0
	if e.Kind == comm.ReadComm {
		for _, d := range c.deps {
			if d.Kind != dep.Flow || d.Dst != e.Stmt {
				continue
			}
			if d.DstRef == nil || !d.DstRef.Eq(e.Ref) {
				continue
			}
			depth = max(depth, depDepth(e.Nest, d))
		}
		return depth
	}
	srcKey := cp.PartitionKey(c.in.Ctx, c.proc, c.in.Sel.CPOf(e.Stmt.ID))
	for _, d := range c.deps {
		if d.Kind != dep.Flow || d.Src != e.Stmt {
			continue
		}
		if d.SrcRef == nil || !d.SrcRef.Eq(e.Ref) {
			continue
		}
		if srcKey != "<replicated>" &&
			cp.PartitionKey(c.in.Ctx, c.proc, c.in.Sel.CPOf(d.Dst.ID)) == srcKey &&
			!c.depCrossesRanks(d) {
			continue
		}
		depth = max(depth, depDepth(e.Nest, d))
	}
	return depth
}

// carriesCrossing reports whether any re-derived flow dependence on the
// array is carried by the loop across a distributed dimension.
func (c *checker) carriesCrossing(carrier *ir.Loop, array string) bool {
	for _, d := range c.deps {
		if d.Kind != dep.Flow || !d.CarriedBy(carrier) {
			continue
		}
		if d.SrcRef == nil || d.SrcRef.Name != array {
			continue
		}
		if c.crossesPartition(d, carrier) {
			return true
		}
	}
	return false
}

// depCrossesRanks mirrors the comm package's rule: a dependence connects
// different ranks only when carried by a loop whose variable indexes a
// distributed dimension of the source reference.
func (c *checker) depCrossesRanks(d *dep.Dependence) bool {
	if d.Level == 0 {
		return false
	}
	return c.crossesPartition(d, d.CommonNest[d.Level-1])
}

func (c *checker) crossesPartition(d *dep.Dependence, l *ir.Loop) bool {
	layout := c.in.Ctx.Layout(c.proc, d.SrcRef.Name)
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

// depDepth converts a dependence into a placement depth within nest: a
// loop-independent dependence pins the event inside every shared loop; a
// carried one pins it inside the carrying loop only.
func depDepth(nest []*ir.Loop, d *dep.Dependence) int {
	shared := sharedDepth(nest, d.CommonNest)
	if d.LoopIndependent() {
		return shared
	}
	return min(shared, d.Level)
}

// sharedDepth counts how many loops of nest form a prefix of common.
func sharedDepth(nest, common []*ir.Loop) int {
	n := 0
	for i := 0; i < len(nest) && i < len(common); i++ {
		if nest[i] != common[i] {
			break
		}
		n++
	}
	return n
}

// checkPrivatizedProduction verifies the §4.1/§4.2 obligation replacing
// full-space coverage for privatized arrays: inside a NEW/LOCALIZE loop,
// every element of the privatized array a rank consumes must be produced
// by a defining iteration that same rank executes (or fetched by a live
// read event).  This is exactly what CP propagation's use-to-definition
// translation is supposed to guarantee — re-proven here from the
// iteration sets alone.
func (c *checker) checkPrivatizedProduction() {
	ir.Walk(c.proc.Body, func(s ir.Stmt, _ []*ir.Loop) bool {
		l, ok := s.(*ir.Loop)
		if !ok {
			return true
		}
		vars := append(append([]string{}, l.New...), l.Localize...)
		seen := map[string]bool{}
		for _, v := range vars {
			if seen[v] {
				continue
			}
			seen[v] = true
			c.checkProductionOf(l, v)
		}
		return true
	})
}

// checkProductionOf runs the production-coverage obligation for one
// privatized array under one loop.
func (c *checker) checkProductionOf(l *ir.Loop, array string) {
	layout := c.in.Ctx.Layout(c.proc, array)
	if layout == nil {
		return // undistributed temporaries carry no partitioned defs to lose
	}
	inLoop := func(nest []*ir.Loop) bool {
		for _, n := range nest {
			if n == l {
				return true
			}
		}
		return false
	}
	var defs []ir.AssignInNest
	for _, a := range c.asn {
		if inLoop(a.Nest) && a.Assign.LHS.Name == array && len(a.Assign.LHS.Subs) > 0 {
			defs = append(defs, a)
		}
	}
	for rank := 0; rank < c.grid.Size(); rank++ {
		produced := iset.EmptySet(layout.Rank())
		for _, d := range defs {
			iters := c.iterSet(d, rank)
			produced = produced.Union(
				cp.RefDataSet(d.Assign.LHS, ir.NestVars(d.Nest), iters, c.params()).IntersectBox(layout.Space()))
		}
		for _, a := range c.asn {
			if !inLoop(a.Nest) {
				continue
			}
			for _, ref := range ir.Refs(a.Assign.RHS) {
				if ref.Name != array || len(ref.Subs) == 0 {
					continue
				}
				iters := c.iterSet(a, rank)
				needed := cp.RefDataSet(ref, ir.NestVars(a.Nest), iters, c.params()).IntersectBox(layout.Space())
				if needed.IsEmpty() {
					continue
				}
				fetched := iset.EmptySet(layout.Rank())
				for _, e := range c.eventsFor(comm.ReadComm, a.Assign.ID, ref) {
					if !e.Eliminated {
						fetched = fetched.Union(c.nonLocal(a.Assign, a.Nest, ref, rank))
					}
				}
				missing := needed.Subtract(produced).Subtract(fetched)
				if !missing.IsEmpty() {
					c.diag(Diagnostic{
						Check: CheckCoverage, Severity: Error, Stmt: a.Assign.ID,
						Ref: ref.String(), Set: missing.String(),
						Why: fmt.Sprintf("privatized array %s: rank %d consumes elements no defining iteration it executes produces (NEW/LOCALIZE translation broken)", array, rank),
					})
				}
			}
		}
	}
}

// --- privatization linter surface --------------------------------------------

// checkPrivatize surfaces the conservative bail-outs of the privatization
// linter as INFO diagnostics: for every NEW/LOCALIZE directive, any read
// the set-based def-before-use check could not cover is reported with its
// reason, instead of staying a silent user assertion.
func (c *checker) checkPrivatize() {
	ir.Walk(c.proc.Body, func(s ir.Stmt, _ []*ir.Loop) bool {
		l, ok := s.(*ir.Loop)
		if !ok {
			return true
		}
		for _, group := range []struct {
			directive string
			vars      []string
		}{{"NEW", l.New}, {"LOCALIZE", l.Localize}} {
			for _, v := range group.vars {
				for _, b := range dep.NewBailouts(l, v, c.params()) {
					c.diag(Diagnostic{
						Check: CheckPrivatize, Severity: Info, Stmt: b.Stmt,
						Ref: b.Ref,
						Why: fmt.Sprintf("%s(%s) on loop %s not validated — privatization rests on the user assertion: %s",
							group.directive, v, l.Var, b.Why()),
					})
				}
			}
		}
		return true
	})
}
