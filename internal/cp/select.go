package cp

import (
	"fmt"
	"sort"
	"strconv"

	"dhpf/internal/hpf"
	"dhpf/internal/ir"
)

// NewPropMode selects how statements defining NEW (privatizable) arrays
// are partitioned — the three alternatives §4.1 weighs.
type NewPropMode int

const (
	// NewPropTranslate is the paper's technique: compute exactly the
	// elements each processor will use, by translating use CPs to defs.
	NewPropTranslate NewPropMode = iota
	// NewPropReplicate keeps a complete copy per processor (every
	// processor computes all elements) — the first rejected alternative.
	NewPropReplicate
	// NewPropOwner partitions the privatizable array and owner-computes
	// it, forcing boundary communication — the second rejected
	// alternative.
	NewPropOwner
)

// Options parameterizes CP selection.  Whether an optimization runs at
// all is not decided here: a phase is in the pass pipeline or it is not.
type Options struct {
	NewProp   NewPropMode
	MaxCombos int // cap on exhaustive CP-combination search
}

// DefaultOptions is the paper's configuration.
func DefaultOptions() Options {
	return Options{NewProp: NewPropTranslate, MaxCombos: 4096}
}

// Selection is the result of CP selection for a whole program.
type Selection struct {
	// CPs maps statement IDs (assignments and calls) to their chosen CP.
	CPs map[int]*CP
	// Marked lists, per procedure, statement pairs that could not share a
	// CP choice and must be split into different loops (§5).
	Marked map[*ir.Procedure][][2]*ir.Assign
	// Entry holds each procedure's entry CP (nil if not uniform).
	Entry map[string]*CP

	notes []noteRec
	cur   noteKey
	seq   int
}

// NewSelection returns an empty selection ready for the phase functions
// (SelectBase, PropagateNewArrays, PropagateLocalize, SelectInterproc).
func NewSelection() *Selection {
	return &Selection{
		CPs:    map[int]*CP{},
		Marked: map[*ir.Procedure][][2]*ir.Assign{},
		Entry:  map[string]*CP{},
	}
}

// noteKey orders a decision note the way the interleaved selection of
// the pre-pass-pipeline compiler emitted it, so that running the phases
// as separate whole-program passes reproduces the identical report:
// procedures bottom-up, within a procedure its top-level statements in
// order (grouping notes, then call-translation notes, then propagation
// notes innermost-loop-first with NEW before LOCALIZE per level), the
// entry-CP note last, and loop-distribution notes after every selection
// note.
type noteKey struct {
	late  int // 1: post-selection (loop distribution) notes
	proc  int // bottom-up procedure index
	entry int // 1: the procedure's entry-CP note (after its other notes)
	top   int // top-level statement index within the procedure
	phase int // 0 grouping/search, 1 call translation, 2 propagation
	loop  int // innermost-first position of the propagated loop
	sub   int // 0 NEW, 1 LOCALIZE
}

type noteRec struct {
	key  noteKey
	text string
}

func (k noteKey) less(o noteKey) bool {
	if k.late != o.late {
		return k.late < o.late
	}
	if k.proc != o.proc {
		return k.proc < o.proc
	}
	if k.entry != o.entry {
		return k.entry < o.entry
	}
	if k.top != o.top {
		return k.top < o.top
	}
	if k.phase != o.phase {
		return k.phase < o.phase
	}
	if k.loop != o.loop {
		return k.loop < o.loop
	}
	return k.sub < o.sub
}

// Notes returns the human-readable decision log in report order.
func (s *Selection) Notes() []string {
	recs := make([]noteRec, len(s.notes))
	copy(recs, s.notes)
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].key.less(recs[j].key) })
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.text
	}
	return out
}

// NoteCount reports how many decision notes have been recorded so far
// (the pass manager diffs it around each pass).
func (s *Selection) NoteCount() int { return len(s.notes) }

// NotesSince returns the notes recorded after the first n, in the order
// they were emitted (not report order) — the decisions one pass made.
func (s *Selection) NotesSince(n int) []string {
	if n < 0 || n > len(s.notes) {
		return nil
	}
	out := make([]string, 0, len(s.notes)-n)
	for _, r := range s.notes[n:] {
		out = append(out, r.text)
	}
	return out
}

// CPOf returns the CP chosen for a statement (replicated if none).
func (s *Selection) CPOf(id int) *CP {
	if cp, ok := s.CPs[id]; ok {
		return cp
	}
	return &CP{}
}

func (s *Selection) notef(format string, args ...any) {
	s.seq++
	s.notes = append(s.notes, noteRec{key: s.cur, text: fmt.Sprintf(format, args...)})
}

// Select runs every CP-selection phase in pipeline order over every
// procedure: SelectBase, PropagateNewArrays, PropagateLocalize,
// SelectInterproc.
func Select(ctx *Context, opt Options) (*Selection, error) {
	sel := NewSelection()
	if err := SelectBase(ctx, sel, opt, nil); err != nil {
		return nil, err
	}
	if err := PropagateNewArrays(ctx, sel, opt, nil); err != nil {
		return nil, err
	}
	if err := PropagateLocalize(ctx, sel, opt, nil); err != nil {
		return nil, err
	}
	if err := SelectInterproc(ctx, sel, nil); err != nil {
		return nil, err
	}
	return sel, nil
}

// SelectBase runs the local CP selection of §2 and §5 into sel,
// bottom-up on the call graph: candidate enumeration, union-find
// grouping over loop-independent dependences, and the least-communication
// combination search.  It assigns CPs to assignments only; call
// statements are handled by SelectInterproc and privatizable overrides
// by the propagation phases.
//
// Every phase skips the procedures for which skip returns true — those
// had their completed per-procedure selection installed from a frozen
// artifact (Selection.InstallProc), so re-selecting them would both
// waste the search and duplicate their decision notes.  A nil skip
// selects every procedure.
func SelectBase(ctx *Context, sel *Selection, opt Options, skip func(*ir.Procedure) bool) error {
	order, err := ctx.Callees()
	if err != nil {
		return err
	}
	for pi, proc := range order {
		if skip != nil && skip(proc) {
			continue
		}
		for ti, s := range proc.Body {
			sel.cur = noteKey{proc: pi, top: ti}
			switch st := s.(type) {
			case *ir.Assign:
				sel.CPs[st.ID] = defaultCP(ctx, proc, st)
			case *ir.Loop:
				if err := selectLoopBase(ctx, proc, st, sel, opt); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// PropagateNewArrays applies §4.1: for every loop carrying a NEW
// directive, innermost loops first, the CPs of the statements defining
// the privatizable are recomputed from the CPs of its uses.
func PropagateNewArrays(ctx *Context, sel *Selection, opt Options, skip func(*ir.Procedure) bool) error {
	return propagatePhase(ctx, sel, opt, false, skip)
}

// PropagateLocalize applies §4.2: LOCALIZE partial replication for
// distributed arrays, keeping the owner-computes term so the owner's
// copy stays current.
func PropagateLocalize(ctx *Context, sel *Selection, opt Options, skip func(*ir.Procedure) bool) error {
	return propagatePhase(ctx, sel, opt, true, skip)
}

func propagatePhase(ctx *Context, sel *Selection, opt Options, localize bool, skip func(*ir.Procedure) bool) error {
	order, err := ctx.Callees()
	if err != nil {
		return err
	}
	sub := 0
	if localize {
		sub = 1
	}
	for pi, proc := range order {
		if skip != nil && skip(proc) {
			continue
		}
		for ti, s := range proc.Body {
			top, ok := s.(*ir.Loop)
			if !ok {
				continue
			}
			var nestLoops []*ir.Loop
			collectLoops([]ir.Stmt{top}, &nestLoops)
			for i := len(nestLoops) - 1; i >= 0; i-- {
				l := nestLoops[i]
				vars := l.New
				if localize {
					vars = l.Localize
				}
				for _, v := range vars {
					sel.cur = noteKey{proc: pi, top: ti, phase: 2, loop: len(nestLoops) - 1 - i, sub: sub}
					if err := propagateNew(ctx, proc, l, v, sel, opt, localize); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// SelectInterproc applies §6 bottom-up on the call graph: every call
// statement receives the callee's entry CP translated through the
// formal→actual binding (replicated when the callee has no uniform
// entry CP or translation fails), and then the procedure's own entry CP
// is computed from its now-complete statement CPs and recorded in
// sel.Entry and ctx.EntryCPs.  Must run after the propagation phases so
// entry CPs reflect the propagated selections.  A skipped procedure's
// entry CP was installed by the thaw (Selection.InstallProc); it is
// republished into ctx.EntryCPs here — at the procedure's bottom-up turn
// — so callers later in the order translate against exactly what
// selecting it would have computed.
func SelectInterproc(ctx *Context, sel *Selection, skip func(*ir.Procedure) bool) error {
	order, err := ctx.Callees()
	if err != nil {
		return err
	}
	for pi, proc := range order {
		if skip != nil && skip(proc) {
			if entry, ok := sel.Entry[proc.Name]; ok {
				ctx.EntryCPs[proc.Name] = entry
				continue
			}
			// No thawed entry CP (the artifact predates §6 state for this
			// procedure); fall through and compute it like a dirty one.
		}
		for ti, s := range proc.Body {
			sel.cur = noteKey{proc: pi, top: ti, phase: 1}
			switch st := s.(type) {
			case *ir.CallStmt:
				sel.CPs[st.ID] = callCP(ctx, proc, st, sel)
			case *ir.Loop:
				ir.Walk(st.Body, func(inner ir.Stmt, _ []*ir.Loop) bool {
					if call, ok := inner.(*ir.CallStmt); ok {
						sel.CPs[call.ID] = callCP(ctx, proc, call, sel)
					}
					return true
				})
			}
		}
		sel.cur = noteKey{proc: pi, entry: 1}
		entry := entryCP(ctx, proc, sel)
		sel.Entry[proc.Name] = entry
		ctx.EntryCPs[proc.Name] = entry
		if entry != nil && !entry.Replicated() {
			sel.notef("proc %s: entry CP %s", proc.Name, entry)
		}
	}
	return nil
}

// callCP computes a call statement's CP from the callee's entry CP (§6),
// translated through the formal→actual binding; replicated when the
// callee has no uniform entry CP or translation fails.
func callCP(ctx *Context, proc *ir.Procedure, call *ir.CallStmt, sel *Selection) *CP {
	entry := ctx.EntryCPs[call.Callee]
	if entry == nil || entry.Replicated() {
		return &CP{}
	}
	callee := ctx.Prog.Proc(call.Callee)
	translated := TranslateEntryCP(ctx, callee, entry, call)
	if translated == nil {
		sel.notef("proc %s: call %s: entry CP %s not translatable; replicating", proc.Name, call.Callee, entry)
		return &CP{}
	}
	return translated
}

// selectLoopBase runs §5 grouping then least-cost combination search for
// one outermost loop nest.
func selectLoopBase(ctx *Context, proc *ir.Procedure, loop *ir.Loop, sel *Selection, opt Options) error {
	asn := ir.Assignments([]ir.Stmt{loop})

	// Candidate choice sets.
	idx := map[int]int{} // stmt ID → index in asn
	choices := make([][]*CP, len(asn))
	for i, a := range asn {
		idx[a.Assign.ID] = i
		choices[i] = candidates(ctx, proc, a.Assign)
	}

	// §5: union-find grouping over loop-independent dependences.
	parent := make([]int, len(asn))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	groupChoices := make([][]*CP, len(asn))
	copy(groupChoices, choices)

	for _, d := range ctx.Deps(proc) {
		if !d.LoopIndependent() || !nestHasLoop(d.CommonNest, loop) {
			continue
		}
		si, oki := idx[d.Src.ID]
		di, okj := idx[d.Dst.ID]
		if !oki || !okj {
			continue
		}
		ri, rj := find(si), find(di)
		if ri == rj {
			continue
		}
		// Statements with no distributed refs are CP-neutral: they
		// can join any group.
		common := intersectChoiceSets(ctx, proc, groupChoices[ri], groupChoices[rj])
		switch {
		case len(groupChoices[ri]) == 0:
			parent[ri] = rj
		case len(groupChoices[rj]) == 0:
			parent[rj] = ri
		case len(common) > 0:
			parent[rj] = ri
			groupChoices[ri] = common
		default:
			sel.Marked[proc] = append(sel.Marked[proc], [2]*ir.Assign{d.Src, d.Dst})
			sel.notef("proc %s loop %s: cannot localize dep %v -> %v; marked for distribution",
				proc.Name, loop.Var, d.SrcRef, d.DstRef)
		}
	}

	// Collect final groups.
	groupOf := map[int][]int{} // root → member indices
	for i := range asn {
		r := find(i)
		groupOf[r] = append(groupOf[r], i)
	}
	roots := make([]int, 0, len(groupOf))
	for r := range groupOf {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	groups := make([]cpGroup, 0, len(roots))
	for _, r := range roots {
		groups = append(groups, cpGroup{members: groupOf[r], choices: groupChoices[r]})
	}
	// Search order is by first member, not by root (a group's root need
	// not be its smallest member).
	sort.Slice(groups, func(i, j int) bool { return groups[i].members[0] < groups[j].members[0] })

	// Combination search over group choices, minimizing estimated comm.
	assign := func(pick []int) map[int]*CP {
		cps := map[int]*CP{}
		for gi, g := range groups {
			var c *CP
			if len(g.choices) == 0 {
				c = &CP{}
			} else {
				c = g.choices[pick[gi]]
			}
			for _, mi := range g.members {
				cps[asn[mi].Assign.ID] = c
			}
		}
		return cps
	}

	nCombos := 1
	capped := false
	for _, g := range groups {
		n := max(len(g.choices), 1)
		if nCombos > opt.MaxCombos/n {
			capped = true
			break
		}
		nCombos *= n
	}

	pick := make([]int, len(groups))
	var best map[int]*CP
	if !capped && nCombos > 1 {
		bestCost := int64(-1)
		bestPick := make([]int, len(groups))
		for {
			cps := assign(pick)
			cost := ctx.CommCost(proc, loop, cps)
			if bestCost < 0 || cost < bestCost {
				bestCost = cost
				copy(bestPick, pick)
			}
			// Advance odometer.
			k := len(groups) - 1
			for k >= 0 {
				pick[k]++
				if pick[k] < max(len(groups[k].choices), 1) {
					break
				}
				pick[k] = 0
				k--
			}
			if k < 0 {
				break
			}
		}
		best = assign(bestPick)
	} else if capped {
		// Greedy: settle one group at a time against the current plan.
		for gi := range groups {
			bestCost := int64(-1)
			bestCi := 0
			for ci := 0; ci < max(len(groups[gi].choices), 1); ci++ {
				pick[gi] = ci
				cost := ctx.CommCost(proc, loop, assign(pick))
				if bestCost < 0 || cost < bestCost {
					bestCost = cost
					bestCi = ci
				}
			}
			pick[gi] = bestCi
		}
		best = assign(pick)
	} else {
		best = assign(pick)
	}
	for id, c := range best {
		sel.CPs[id] = c
	}
	return nil
}

// defaultCP is owner-computes of the LHS when distributed, else the
// first distributed RHS ref, else replicated.
func defaultCP(ctx *Context, proc *ir.Procedure, a *ir.Assign) *CP {
	for _, c := range candidates(ctx, proc, a) {
		return c
	}
	return &CP{}
}

// candidates enumerates the CP choices for an assignment: one ON_HOME
// term per *distinct data partition* among the statement's distributed
// references (references with identical partitions count once — §5).
// The LHS reference comes first so owner-computes is the tie-break.
//
// A statement writing an *undistributed array* gets no candidates
// (replicated execution): every processor holds a copy of such an array
// and the copies must stay consistent.  The exception — privatizable
// arrays whose values are consumed only where they were computed — is
// handled afterwards by NEW/LOCALIZE propagation (§4), which overrides
// the replicated CP with the translated partial one.
func candidates(ctx *Context, proc *ir.Procedure, a *ir.Assign) []*CP {
	if len(a.LHS.Subs) > 0 && ctx.Layout(proc, a.LHS.Name) == nil {
		return nil
	}
	var out []*CP
	seen := map[string]bool{}
	consider := func(r *ir.ArrayRef) {
		l := ctx.Layout(proc, r.Name)
		if l == nil || len(r.Subs) == 0 {
			return
		}
		key := partitionKey(ctx, l, r)
		if seen[key] {
			return
		}
		seen[key] = true
		out = append(out, OnHome(r))
	}
	consider(a.LHS)
	for _, r := range ir.Refs(a.RHS) {
		consider(r)
	}
	return out
}

// partitionKey renders the partition-relevant part of a reference: which
// grid dimension each distributed array dimension maps to and the
// subscript used there.  Two references with equal keys assign every
// iteration to the same processor.
func partitionKey(ctx *Context, l *hpf.Layout, r *ir.ArrayRef) string {
	key := make([]byte, 0, 128)
	for d, dl := range l.Dims {
		if dl.Kind == hpf.Block {
			key = appendSubKey(appendDimKey(key, dl), ctx, FromSubscript(r.Subs[d]))
		}
	}
	return string(key)
}

// appendDimKey spells the block layout of one array dimension.
func appendDimKey(key []byte, dl hpf.DimLayout) []byte {
	key = strconv.AppendInt(append(key, 'g'), int64(dl.GridDim), 10)
	key = strconv.AppendInt(append(key, ":b"...), int64(dl.BlockSz), 10)
	key = strconv.AppendInt(append(key, ":t"...), int64(dl.TplOff), 10)
	return append(key, ':')
}

// appendSubKey spells the subscript used in a block dimension, its
// offset (or range ends) evaluated at the parameter binding.
func appendSubKey(key []byte, ctx *Context, s HomeSub) []byte {
	if s.IsRange {
		key = strconv.AppendInt(append(key, '['), int64(s.Lo.EvalOr(ctx.Bind.Params, 0)), 10)
		key = strconv.AppendInt(append(key, ':'), int64(s.Hi.EvalOr(ctx.Bind.Params, 0)), 10)
		return append(key, "];"...)
	}
	key = strconv.AppendInt(append(append(key, s.Var...), '*'), int64(s.Coef), 10)
	key = strconv.AppendInt(append(key, '+'), int64(s.Off.EvalOr(ctx.Bind.Params, 0)), 10)
	return append(key, ';')
}

// appendTermKey is partitionKey for an ON_HOME term (used when
// intersecting group choice sets).
func appendTermKey(key []byte, ctx *Context, proc *ir.Procedure, t Term) []byte {
	l := ctx.Layout(proc, t.Array)
	if l == nil {
		return append(key, "<replicated>"...)
	}
	for d, dl := range l.Dims {
		if dl.Kind == hpf.Block {
			key = appendSubKey(appendDimKey(key, dl), ctx, t.Subs[d])
		}
	}
	return key
}

// PartitionKey renders the partition-relevant content of a CP: two CPs
// with equal keys assign every iteration to the same processor.  The
// replicated CP yields "<replicated>".
func PartitionKey(ctx *Context, proc *ir.Procedure, c *CP) string {
	return cpKey(ctx, proc, c)
}

func cpKey(ctx *Context, proc *ir.Procedure, c *CP) string {
	if c.Replicated() {
		return "<replicated>"
	}
	key := make([]byte, 0, 128)
	for _, t := range c.Terms {
		key = append(appendTermKey(key, ctx, proc, t), '|')
	}
	return string(key)
}

func collectLoops(body []ir.Stmt, out *[]*ir.Loop) {
	ir.Walk(body, func(s ir.Stmt, _ []*ir.Loop) bool {
		if l, ok := s.(*ir.Loop); ok {
			*out = append(*out, l)
		}
		return true
	})
}

func nestHasLoop(nest []*ir.Loop, l *ir.Loop) bool {
	for _, x := range nest {
		if x == l {
			return true
		}
	}
	return false
}

// intersectChoiceSets intersects two CP choice sets by partition key.
func intersectChoiceSets(ctx *Context, proc *ir.Procedure, a, b []*CP) []*CP {
	var out []*CP
	for _, ca := range a {
		ka := cpKey(ctx, proc, ca)
		for _, cb := range b {
			if ka == cpKey(ctx, proc, cb) {
				out = append(out, ca)
				break
			}
		}
	}
	return out
}

// cpGroup is a set of statements constrained to share one CP choice.
type cpGroup struct {
	members []int
	choices []*CP
}
