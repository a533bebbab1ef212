package sched

import (
	"encoding/binary"
	"maps"
	"sort"
	"sync"

	"dhpf/internal/comm"
	"dhpf/internal/cp"
	"dhpf/internal/hpf"
	"dhpf/internal/ir"
	"dhpf/internal/iset"
)

// Strip is a strip window: iterations of the loop over Var are
// restricted to [Lo, Hi].
type Strip struct {
	Var    string
	Lo, Hi int
}

// Clamp restricts the range lo→hi of loop l (walked in the direction of
// l.Step) to the window when l is the strip loop.
func (s *Strip) Clamp(l *ir.Loop, lo, hi int) (int, int) {
	if s == nil || s.Var != l.Var {
		return lo, hi
	}
	if l.Step > 0 {
		return max(lo, s.Lo), min(hi, s.Hi)
	}
	return min(lo, s.Hi), max(hi, s.Lo)
}

// Point is where a transfer plan is taken: under the scalar binding Bind,
// with the outermost Depth loop variables of every event's nest fixed at
// their bound values, optionally inside a strip window.  The zero point —
// the parameter binding, depth 0, no strip — is the fully vectorized plan
// the report and the node-program printer show.
type Point struct {
	Bind  map[string]int
	Depth int
	Strip *Strip
}

// Planner is the coalescing transfer planner: a pure function of the
// three facts, so a caller that only plans (the pass pipeline's volume
// probe) can build one from them alone.
type Planner struct {
	Ctx  *cp.Context
	Sel  *cp.Selection
	Grid *hpf.Grid
}

// Firing is one placed event list — the events that fire together at one
// boundary — under the program-dense id that stands for them in the memo
// key.  Firings are built by New and never change.
type Firing struct {
	ID     int
	Proc   *ir.Procedure
	Events []*comm.Event
}

// Transfer is one transfer of a memoized plan, resolved once when the
// plan is stored: Boxes are the planned set's boxes in canonical order
// (iset.Set.Each's, so every consumer packs and unpacks the same element
// order) and Elems its cardinality.  The set itself is not kept.  Both
// are shared and read-only.
type Transfer struct {
	Array    string
	From, To int
	Boxes    []iset.Box
	Elems    int64
}

// Bytes returns the message payload size.
func (t Transfer) Bytes() int64 { return 8 * t.Elems }

// KeyScratch is caller-owned scratch the memo key is built on, so a rank
// looking up in a loop does not allocate, with the slot form a map
// binding is turned into at the API edges.  Never share one across
// goroutines.
type KeyScratch struct {
	buf []byte
	b   binding
}

// Memo key tags: a key is a tag byte, the tag's own fields, then the
// whole scalar binding.  Every field is a varint or a length-prefixed
// string, so a key parses one way only and two keys are equal exactly
// when every field is.
const (
	keyPlan       = 'P' // firing id, depth, strip
	keyActivation = 'A' // procedure id, rank
)

// spell completes the key k (built on ks's buffer) with the value of
// every scalar name of the program (parameters, loop variables, integer
// formals — slots, in New's sorted order of the names) as unbound, or
// bound and the value.  That is the entire binding, a superset of what
// the set algebra can read, so equal keys imply equal sets even if some
// bound scalar never occurs in a subscript.
func (ks *KeyScratch) spell(k []byte, b *binding) []byte {
	for i, ok := range b.bound {
		if !ok {
			k = append(k, 0)
			continue
		}
		k = append(k, 1)
		k = binary.AppendVarint(k, int64(b.vals[i]))
	}
	ks.buf = k
	return k
}

// Memo is a plan memo: firing plans and activation iteration sets of
// one schedule by key.  Whoever walks a schedule owns the memo it plans
// through — the Program one for all its executions, an analysis one per
// call — and it dies with its owner.  Never make one (or anything it
// holds) process-global, which pins the IR of every program ever
// compiled.  The zero Memo is empty and ready; one serves any number of
// concurrent walkers of its schedule.
type Memo struct {
	mu sync.RWMutex
	m  map[string]memoEntry
}

type memoEntry struct {
	plan  []Transfer
	iters map[int]iset.Set
}

// Len returns the number of plans and activations stored.
func (m *Memo) Len() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.m)
}

func (m *Memo) load(key []byte) (memoEntry, bool) {
	m.mu.RLock()
	e, ok := m.m[string(key)]
	m.mu.RUnlock()
	return e, ok
}

// store keeps the first entry stored under a key and returns it with
// whether that was e, so racing ranks share one value and exactly one of
// them counts the miss.
func (m *Memo) store(key []byte, e memoEntry) (memoEntry, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if have, ok := m.m[string(key)]; ok {
		return have, false
	}
	if m.m == nil {
		m.m = map[string]memoEntry{}
	}
	m.m[string(key)] = e
	return e, true
}

// planKey builds the key of firing f at depth in the strip under b.
func (s *Schedule) planKey(ks *KeyScratch, f *Firing, depth int, strip *Strip, b *binding) []byte {
	k := append(ks.buf[:0], keyPlan)
	k = binary.AppendUvarint(k, uint64(f.ID))
	k = binary.AppendVarint(k, int64(depth))
	if strip == nil {
		k = append(k, 0)
	} else {
		k = append(k, 1)
		k = binary.AppendUvarint(k, uint64(len(strip.Var)))
		k = append(k, strip.Var...)
		k = binary.AppendVarint(k, int64(strip.Lo))
		k = binary.AppendVarint(k, int64(strip.Hi))
	}
	return ks.spell(k, b)
}

// activationKey builds the key of an activation of ps's procedure on
// rank under b.
func (s *Schedule) activationKey(ks *KeyScratch, ps *ProcSched, rank int, b *binding) []byte {
	k := append(ks.buf[:0], keyActivation)
	k = binary.AppendUvarint(k, uint64(ps.id))
	k = binary.AppendUvarint(k, uint64(rank))
	return ks.spell(k, b)
}

// Transfers is Plan through memo m, for firings that repeat: the first
// computation of a key serves every walker planning through m, and a
// warm lookup allocates nothing.  The result is shared: callers must not
// modify it.  miss reports that this call stored the plan.  A name the
// program never binds is dropped from at.Bind.
func (s *Schedule) Transfers(m *Memo, f *Firing, at Point, ks *KeyScratch) (plan []Transfer, miss bool) {
	return s.transfers(m, f, at.Depth, at.Strip, s.slotted(at.Bind, &ks.b), ks)
}

// transfers is Transfers under a slot binding, which is turned into names
// only on a miss.
func (s *Schedule) transfers(m *Memo, f *Firing, depth int, strip *Strip, b *binding, ks *KeyScratch) ([]Transfer, bool) {
	key := s.planKey(ks, f, depth, strip, b)
	if e, hit := m.load(key); hit {
		return e.plan, false
	}
	at := Point{Bind: b.byName(s.names), Depth: depth, Strip: strip}
	e, miss := m.store(key, memoEntry{plan: resolve(s.Plan(f.Proc, f.Events, at))})
	return e.plan, miss
}

func resolve(plan []comm.Transfer) []Transfer {
	out := make([]Transfer, len(plan))
	for i, t := range plan {
		out[i] = Transfer{Array: t.Array, From: t.From, To: t.To, Boxes: t.Data.Boxes(), Elems: t.Data.Card()}
	}
	return out
}

// Plan computes the vectorized, coalesced point-to-point transfers
// satisfying the events at the point: for every rank the data its
// iterations touch but it does not own, grouped by owner and merged per
// (array, from, to) across events — dhpf's message coalescing.  Read
// events move data owner → reader, write-backs writer → owner; callers
// pass events of one kind that fire together.  The plan depends only on
// sets, never on the asking rank, so every rank gets the identical list,
// which keeps message tags consistent.
func (pl *Planner) Plan(proc *ir.Procedure, events []*comm.Event, at Point) []comm.Transfer {
	type key struct {
		array    string
		from, to int
	}
	acc := map[key]iset.Set{}
	var order []key
	ranks := pl.Grid.Size()
	// At the zero point every rank's part is the statement's non-local
	// data, which the context's derived-set table serves.
	zero := at.Depth == 0 && at.Strip == nil && maps.Equal(at.Bind, pl.Ctx.Bind.Params)
	for _, e := range events {
		layout := pl.Ctx.Layout(proc, e.Ref.Name)
		if layout == nil {
			continue
		}
		c := pl.Sel.CPOf(e.Stmt.ID)
		vars := ir.NestVars(e.Nest)
		for t := 0; t < ranks; t++ {
			var nl iset.Set
			if zero {
				nl = pl.Ctx.NonLocal(proc, e.Stmt.ID, c, e.Nest, e.Ref, t)
			} else {
				nl = nonLocalAt(pl.Ctx, proc, c, e, vars, layout, t, at)
			}
			if nl.IsEmpty() {
				continue
			}
			for peer := 0; peer < ranks; peer++ {
				if peer == t {
					continue
				}
				part := nl.IntersectBox(layout.LocalBox(peer))
				if part.IsEmpty() {
					continue
				}
				k := key{array: e.Ref.Name, from: t, to: peer}
				if e.Kind == comm.ReadComm {
					k.from, k.to = peer, t
				}
				if _, seen := acc[k]; !seen {
					order = append(order, k)
				}
				acc[k] = acc[k].Union(part)
			}
		}
	}
	out := make([]comm.Transfer, 0, len(order))
	for _, k := range order {
		out = append(out, comm.Transfer{Array: k.array, From: k.from, To: k.to, Data: acc[k]})
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Array != b.Array {
			return a.Array < b.Array
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return out
}

// nonLocalAt is the data event e's reference touches on rank t at the
// point and t does not own: the statement's iterations under the point's
// binding, its outermost Depth loops fixed and its strip loop windowed.
func nonLocalAt(ctx *cp.Context, proc *ir.Procedure, c *cp.CP, e *comm.Event, vars []string, layout *hpf.Layout, t int, at Point) iset.Set {
	iters := c.IterSet(e.Nest, at.Bind, ctx.LocalOf(proc, t))
	for k := 0; k < at.Depth && k < len(vars); k++ {
		v := at.Bind[vars[k]]
		iters = iters.ClampDim(k, v, v)
	}
	if at.Strip != nil {
		for k, v := range vars {
			if v == at.Strip.Var {
				iters = iters.ClampDim(k, at.Strip.Lo, at.Strip.Hi)
			}
		}
	}
	if iters.IsEmpty() {
		return iters
	}
	data := cp.RefDataSet(e.Ref, vars, iters, at.Bind)
	return data.IntersectBox(layout.Space()).SubtractBox(layout.LocalBox(t))
}
