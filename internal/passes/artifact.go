package passes

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"dhpf/internal/analysis"
	"dhpf/internal/comm"
	"dhpf/internal/cp"
	"dhpf/internal/ir"
	"dhpf/internal/verify"
)

// Artifact kinds stored per (procedure, environment-fingerprint) in the
// cache.ArtifactStore.  Everything between these checkpoints — loop
// distribution, reduction recognition — is cheap and deterministic given
// the thawed inputs, so it is always re-run rather than cached.
const (
	artifactSel    = "sel"    // per-procedure CP selection, frozen post-§6 on the pre-distribution body
	artifactComm   = "comm"   // communication plan, frozen post-distribution and post-elimination
	artifactVerify = "verify" // per-procedure verification fragment
	// artifactAnalyze is the static-analysis tier: one procedure's
	// summary-plus-diagnostics fragment, frozen on the post-distribution
	// body like verify's.
	artifactAnalyze = "analyze"
)

// refSel names one array reference of an assignment positionally, so a
// frozen artifact can rebind it to the structurally-identical assignment
// of a later compile whose AST pointers differ.
type refSel struct {
	Kind int // selLHS or selRHS
	Idx  int // the RHS reference's index, for selRHS
}

const (
	selLHS = iota
	selRHS
)

// selectRef computes the selector for a reference of assignment a.
func selectRef(a *ir.Assign, ref *ir.ArrayRef) (refSel, error) {
	if ref == a.LHS {
		return refSel{Kind: selLHS}, nil
	}
	for i, r := range ir.Refs(a.RHS) {
		if r == ref {
			return refSel{Kind: selRHS, Idx: i}, nil
		}
	}
	return refSel{}, fmt.Errorf("reference %v not locatable in stmt %d", ref, a.ID)
}

// refCache memoizes ir.Refs per assignment, so thawing several frozen
// events against the same statement walks its RHS only once.
type refCache map[*ir.Assign][]*ir.ArrayRef

// resolveRef rebinds a selector against a fresh assignment.
func (c refCache) resolveRef(a *ir.Assign, s refSel) (*ir.ArrayRef, error) {
	switch s.Kind {
	case selLHS:
		return a.LHS, nil
	case selRHS:
		refs, ok := c[a]
		if !ok {
			refs = ir.Refs(a.RHS)
			c[a] = refs
		}
		if s.Idx < 0 || s.Idx >= len(refs) {
			return nil, fmt.Errorf("RHS ref %d out of range in stmt %d", s.Idx, a.ID)
		}
		return refs[s.Idx], nil
	}
	return nil, fmt.Errorf("unknown ref selector kind %d", s.Kind)
}

// --- statement-ID relocation -------------------------------------------------

// relocateText scans for the "stmt N" phrasing every pass uses when it
// writes a statement into a note, reason or diagnostic.

// walkIDs returns the statement IDs of every statement of a body, in full
// pre-order.  Two compiles of identical procedure text produce
// structurally identical bodies, so pairing the walks positionally gives
// the ID translation between them.
func walkIDs(body []ir.Stmt) []int {
	var ids []int
	ir.Walk(body, func(s ir.Stmt, _ []*ir.Loop) bool {
		ids = append(ids, s.StmtID())
		return true
	})
	return ids
}

// idMap pairs a frozen walk against a fresh one.  A length mismatch means
// the bodies are not isomorphic and the artifact cannot be relocated.
func idMap(old, fresh []int) (map[int]int, error) {
	if len(old) != len(fresh) {
		return nil, fmt.Errorf("statement walk mismatch: %d frozen vs %d fresh", len(old), len(fresh))
	}
	m := make(map[int]int, len(old))
	for i, o := range old {
		if prev, ok := m[o]; ok && prev != fresh[i] {
			return nil, fmt.Errorf("ambiguous relocation of stmt %d", o)
		}
		m[o] = fresh[i]
	}
	return m, nil
}

// relocateText rewrites every "stmt N" in a frozen text through the ID
// map.  An unmapped ID refuses the thaw — better a recompute than a
// report pointing at the wrong statement.  The common warm case — an
// edit that preserves statement counts, so every ID maps to itself —
// returns the input string without allocating.
func relocateText(text string, m map[int]int) (string, error) {
	const tag = "stmt "
	pos := strings.Index(text, tag)
	if pos < 0 {
		return text, nil
	}
	var sb strings.Builder
	changed := false
	last := 0
	for pos >= 0 {
		start := pos + len(tag)
		end := start
		for end < len(text) && text[end] >= '0' && text[end] <= '9' {
			end++
		}
		if end > start {
			n, _ := strconv.Atoi(text[start:end])
			nn, ok := m[n]
			if !ok {
				return "", fmt.Errorf("frozen text names unknown stmt %d", n)
			}
			if nn != n {
				sb.WriteString(text[last:start])
				sb.WriteString(strconv.Itoa(nn))
				last = end
				changed = true
			}
		}
		next := strings.Index(text[end:], tag)
		if next < 0 {
			break
		}
		pos = end + next
	}
	if !changed {
		return text, nil
	}
	sb.WriteString(text[last:])
	return sb.String(), nil
}

// relocateDiagnostics moves frozen diagnostics onto a fresh body: the
// Stmt field and any statement named inside Why.
func relocateDiagnostics(ds []verify.Diagnostic, m map[int]int) ([]verify.Diagnostic, error) {
	out := make([]verify.Diagnostic, 0, len(ds))
	for _, d := range ds {
		if d.Stmt >= 0 {
			nn, ok := m[d.Stmt]
			if !ok {
				return nil, fmt.Errorf("diagnostic names unknown stmt %d", d.Stmt)
			}
			d.Stmt = nn
		}
		var err error
		if d.Why, err = relocateText(d.Why, m); err != nil {
			return nil, err
		}
		out = append(out, d)
	}
	return out, nil
}

// --- selection artifacts -----------------------------------------------------

type frozenSel struct {
	Sel    *cp.ProcSelection
	OldIDs []int // full pre-order statement walk at freeze time (pre-distribution)
}

// freezeSel captures a procedure's completed selection state (post-
// propagation, post-§6) against the pre-distribution body.  pi is the
// procedure's bottom-up call-graph index at freeze time, used to pick
// out its decision notes.
func freezeSel(proc *ir.Procedure, pi int, sel *cp.Selection) *frozenSel {
	return &frozenSel{Sel: sel.ExtractProc(proc, pi), OldIDs: walkIDs(proc.Body)}
}

// thawSel rebinds a frozen selection slice onto a fresh parse of the
// same procedure text — relocating the statement IDs keying the CPs,
// naming the marked pairs and embedded in note texts — and installs it
// under the procedure's current bottom-up index.
func thawSel(proc *ir.Procedure, pi int, sel *cp.Selection, fz *frozenSel) error {
	m, err := idMap(fz.OldIDs, walkIDs(proc.Body))
	if err != nil {
		return err
	}
	ps := &cp.ProcSelection{
		CPs:   make(map[int]*cp.CP, len(fz.Sel.CPs)),
		Entry: fz.Sel.Entry, HasEntry: fz.Sel.HasEntry,
	}
	for id, c := range fz.Sel.CPs {
		nid, ok := m[id]
		if !ok {
			return fmt.Errorf("frozen CP keyed by unknown stmt %d", id)
		}
		ps.CPs[nid] = c
	}
	for _, pair := range fz.Sel.Marked {
		a, oka := m[pair[0]]
		b, okb := m[pair[1]]
		if !oka || !okb {
			return fmt.Errorf("frozen marked pair (%d,%d) not relocatable", pair[0], pair[1])
		}
		ps.Marked = append(ps.Marked, [2]int{a, b})
	}
	for _, n := range fz.Sel.Notes {
		if n.Text, err = relocateText(n.Text, m); err != nil {
			return err
		}
		ps.Notes = append(ps.Notes, n)
	}
	return sel.InstallProc(proc, pi, ps)
}

// --- communication artifacts -------------------------------------------------

type frozenEvent struct {
	Kind       comm.Kind
	Stmt       int // assignment rank in the post-distribution body
	Ref        refSel
	Depth      int
	Pipelined  bool
	Strip      int // 1 + the strip loop's position in the nest, 0 for none
	Eliminated bool
	Reason     string
}

type frozenComm struct {
	Events []frozenEvent
	Notes  []string
	OldIDs []int // full pre-order statement walk at freeze time
}

// freezeComm captures a procedure's finished communication plan (events
// post-elimination, notes rendered) against the post-distribution body.
func freezeComm(proc *ir.Procedure, a *comm.Analysis) (*frozenComm, error) {
	rank := map[*ir.Assign]int{}
	for i, ai := range ir.Assignments(proc.Body) {
		rank[ai.Assign] = i
	}
	out := &frozenComm{
		Events: make([]frozenEvent, 0, len(a.Events)),
		Notes:  append([]string(nil), a.Notes...),
		OldIDs: walkIDs(proc.Body),
	}
	for _, e := range a.Events {
		r, ok := rank[e.Stmt]
		if !ok {
			return nil, fmt.Errorf("event stmt %d not in body", e.Stmt.ID)
		}
		sel, err := selectRef(e.Stmt, e.Ref)
		if err != nil {
			return nil, err
		}
		out.Events = append(out.Events, frozenEvent{
			Kind: e.Kind, Stmt: r, Ref: sel, Depth: e.Depth,
			Pipelined: e.Pipelined, Strip: 1 + slices.Index(e.Nest, e.Strip),
			Eliminated: e.Eliminated, Reason: e.Reason,
		})
	}
	return out, nil
}

// thawComm rebinds a frozen plan to a fresh post-distribution body,
// relocating the statement IDs embedded in reasons and notes.  The
// restored analysis carries no dependence graphs; the elimination phases
// must not run on it (it is already post-elimination).
func thawComm(proc *ir.Procedure, fz *frozenComm) (*comm.Analysis, error) {
	m, err := idMap(fz.OldIDs, walkIDs(proc.Body))
	if err != nil {
		return nil, err
	}
	asn := ir.Assignments(proc.Body)
	rc := refCache{}
	events := make([]*comm.Event, 0, len(fz.Events))
	for _, f := range fz.Events {
		if f.Stmt < 0 || f.Stmt >= len(asn) {
			return nil, fmt.Errorf("event stmt rank %d out of range", f.Stmt)
		}
		a := asn[f.Stmt]
		ref, err := rc.resolveRef(a.Assign, f.Ref)
		if err != nil {
			return nil, err
		}
		if f.Depth < 0 || f.Depth > len(a.Nest) {
			return nil, fmt.Errorf("event depth %d outside nest of %d", f.Depth, len(a.Nest))
		}
		reason, err := relocateText(f.Reason, m)
		if err != nil {
			return nil, err
		}
		e := &comm.Event{
			Kind: f.Kind, Stmt: a.Assign, Ref: ref, Nest: a.Nest,
			Depth: f.Depth, Pipelined: f.Pipelined,
			Eliminated: f.Eliminated, Reason: reason,
		}
		if f.Pipelined {
			if f.Depth < 1 {
				return nil, fmt.Errorf("pipelined event at depth %d has no carrying loop", f.Depth)
			}
			e.CarriedBy = a.Nest[f.Depth-1]
		}
		if f.Strip < 0 || f.Strip > len(a.Nest) {
			return nil, fmt.Errorf("event strip %d outside nest of %d", f.Strip, len(a.Nest))
		}
		if f.Strip > 0 {
			e.Strip = a.Nest[f.Strip-1]
		}
		events = append(events, e)
	}
	notes := make([]string, 0, len(fz.Notes))
	for _, n := range fz.Notes {
		rn, err := relocateText(n, m)
		if err != nil {
			return nil, err
		}
		notes = append(notes, rn)
	}
	return comm.Restore(proc, events, notes), nil
}

// --- verification artifacts --------------------------------------------------

type frozenVerify struct {
	Diagnostics []verify.Diagnostic
	Stmts       int
	Events      int
	Ranks       int
	OldIDs      []int
}

// freezeVerify captures a per-procedure verification fragment against the
// post-distribution body.
func freezeVerify(proc *ir.Procedure, frag *verify.Report) *frozenVerify {
	return &frozenVerify{
		Diagnostics: append([]verify.Diagnostic(nil), frag.Diagnostics...),
		Stmts:       frag.Stmts,
		Events:      frag.Events,
		Ranks:       frag.Ranks,
		OldIDs:      walkIDs(proc.Body),
	}
}

// thawVerify relocates a frozen fragment's statement IDs (both the Stmt
// field and any statement named inside Why) onto a fresh body.
func thawVerify(proc *ir.Procedure, fz *frozenVerify) (*verify.Report, error) {
	m, err := idMap(fz.OldIDs, walkIDs(proc.Body))
	if err != nil {
		return nil, err
	}
	diags, err := relocateDiagnostics(fz.Diagnostics, m)
	if err != nil {
		return nil, err
	}
	return &verify.Report{
		Diagnostics: diags, Stmts: fz.Stmts, Events: fz.Events, Ranks: fz.Ranks,
	}, nil
}

// --- static-analysis artifacts -----------------------------------------------

type frozenAnalyze struct {
	Proc        analysis.ProcSummary
	Diagnostics []verify.Diagnostic
	// Iface caches the procedure's interface footprints so a dirty
	// caller's analysis can resolve calls to this (clean) procedure
	// without recomputing its phase footprints.  The sets carry no
	// statement IDs, so they need no thaw-time relocation.
	Iface  analysis.ProcIface
	OldIDs []int
}

// freezeAnalyze captures one procedure's static-analysis fragment (a
// single-proc analysis.Result) against the post-distribution body.
func freezeAnalyze(in *analysis.Input, proc *ir.Procedure, frag *analysis.Result) (*frozenAnalyze, error) {
	if len(frag.Procs) != 1 {
		return nil, fmt.Errorf("analysis fragment covers %d procedures, want 1", len(frag.Procs))
	}
	return &frozenAnalyze{
		Proc:        frag.Procs[0],
		Diagnostics: append([]verify.Diagnostic(nil), frag.Diagnostics...),
		Iface:       in.Interface(proc),
		OldIDs:      walkIDs(proc.Body),
	}, nil
}

// thawAnalyze relocates a frozen fragment's statement IDs — phase and
// loop anchors plus the diagnostics' Stmt fields and any "stmt N"
// phrasing inside Why — onto a fresh body.
func thawAnalyze(proc *ir.Procedure, fz *frozenAnalyze) (*analysis.Result, error) {
	m, err := idMap(fz.OldIDs, walkIDs(proc.Body))
	if err != nil {
		return nil, err
	}
	ps := fz.Proc
	ps.Phases = append([]analysis.PhaseSummary(nil), ps.Phases...)
	for i := range ps.Phases {
		ph := &ps.Phases[i]
		nn, ok := m[ph.Stmt]
		if !ok {
			return nil, fmt.Errorf("phase names unknown stmt %d", ph.Stmt)
		}
		ph.Stmt = nn
		ph.Loops = append([]analysis.LoopSummary(nil), ph.Loops...)
		for k := range ph.Loops {
			ln, ok := m[ph.Loops[k].Stmt]
			if !ok {
				return nil, fmt.Errorf("loop summary names unknown stmt %d", ph.Loops[k].Stmt)
			}
			ph.Loops[k].Stmt = ln
		}
	}
	diags, err := relocateDiagnostics(fz.Diagnostics, m)
	if err != nil {
		return nil, err
	}
	return &analysis.Result{Procs: []analysis.ProcSummary{ps}, Diagnostics: diags}, nil
}

// --- size accounting ---------------------------------------------------------

// approxSize estimates an artifact's memory footprint for the store's
// byte budget.  Exactness is unnecessary; the budget only bounds growth.
func approxSize(v any) int64 {
	switch a := v.(type) {
	case *frozenSel:
		n := int64(64 + len(a.OldIDs)*8 + len(a.Sel.Marked)*16)
		for _, c := range a.Sel.CPs {
			if c != nil {
				n += 32 + int64(len(c.Terms))*128
			}
		}
		for _, note := range a.Sel.Notes {
			n += int64(len(note.Text)) + 48
		}
		return n
	case *frozenComm:
		n := int64(64 + len(a.Events)*96 + len(a.OldIDs)*8)
		for _, s := range a.Notes {
			n += int64(len(s)) + 24
		}
		return n
	case *frozenVerify:
		n := int64(64 + len(a.OldIDs)*8)
		for _, d := range a.Diagnostics {
			n += int64(len(d.Check)+len(d.Proc)+len(d.Ref)+len(d.Set)+len(d.Why)) + 96
		}
		return n
	case *frozenAnalyze:
		n := int64(64 + len(a.OldIDs)*8 + len(a.Proc.Proc))
		for _, ph := range a.Proc.Phases {
			n += 96 + int64(len(ph.Loops))*96 + int64(len(ph.PerRankComm))*8
			for _, f := range ph.Reads {
				n += int64(len(f.Array)+len(f.Set)) + 32
			}
			for _, f := range ph.Writes {
				n += int64(len(f.Array)+len(f.Set)) + 32
			}
		}
		for _, d := range a.Diagnostics {
			n += int64(len(d.Check)+len(d.Proc)+len(d.Ref)+len(d.Set)+len(d.Why)) + 96
		}
		return n
	}
	return 256
}
