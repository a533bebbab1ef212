// Artifact persistence: a stable binary encoding for the frozen
// artifact tiers so the incremental compiler's per-unit checkpoint DAG
// can live in a durable chunk store (internal/store) and survive
// restarts.
//
// NewStoreBacking adapts a *store.Store into a cache.ArtifactBacking:
// every Put of a serializable artifact becomes a content-addressed
// chunk plus a one-ref manifest keyed by the artifact's existing
// content key (kind + env fingerprint), and every miss reads through.
// Because artifact keys are content fingerprints, what's on disk can
// never be stale — at worst it is absent.
//
// Every kind the store holds — sel, comm, verify, analyze
// (ArtifactKinds) — is a pure-data frozen struct and persists; nothing
// of the front end is stored, since a compile always parses its source,
// and no dependence graph, since a compile derives one only where a pass
// reads it.
// Encoding an unknown kind is a silent no-op and decoding bytes from an
// older format version is a miss (codec envelope check), so schema
// evolution degrades to recompute, never to failure.
package passes

import (
	"math"
	"sort"
	"strings"

	"dhpf/internal/analysis"
	"dhpf/internal/cache"
	"dhpf/internal/comm"
	"dhpf/internal/cp"
	"dhpf/internal/ir"
	"dhpf/internal/iset"
	"dhpf/internal/store"
	"dhpf/internal/store/codec"
	"dhpf/internal/verify"
)

// artifactCodecVersion is the body-layout version shared by every
// artifact format below; bump it when any frozen struct changes shape.
const artifactCodecVersion = 3

// NewStoreBacking returns a durable backing for the artifact tier,
// persisting frozen artifacts into st.
func NewStoreBacking(st *store.Store) cache.ArtifactBacking {
	return &storeBacking{st: st}
}

type storeBacking struct {
	st *store.Store
}

// artifactKind extracts the tier name from an artifact key
// (kind \x00 fingerprint — see artifactKey).
func artifactKind(key string) string {
	kind, _, _ := strings.Cut(key, "\x00")
	return kind
}

func (b *storeBacking) Store(key string, val any, size int64) {
	data, ok := encodeArtifact(artifactKind(key), val)
	if !ok {
		return
	}
	addr, err := b.st.PutChunk(data)
	if err != nil {
		return // store closed or disk failed: in-memory tier still works
	}
	// Errors here mean the value simply isn't durable; the next restart
	// recomputes it.
	_ = b.st.PutManifest(key, store.Manifest{
		Kind: "artifact",
		Refs: []store.ChunkRef{{Name: "artifact", Addr: addr}},
	})
}

func (b *storeBacking) Load(key string) (any, int64, bool) {
	m, ok := b.st.GetManifest(key)
	if !ok || m.Kind != "artifact" || len(m.Refs) != 1 {
		return nil, 0, false
	}
	data, ok := b.st.GetChunk(m.Refs[0].Addr)
	if !ok {
		return nil, 0, false
	}
	val, ok := decodeArtifact(artifactKind(key), data)
	if !ok {
		return nil, 0, false
	}
	return val, approxSize(val), true
}

// encodeArtifact serializes one artifact value; ok=false means the kind
// is unknown or the value has an unexpected type.
func encodeArtifact(kind string, val any) ([]byte, bool) {
	switch kind {
	case artifactSel:
		v, ok := val.(*frozenSel)
		if !ok || v.Sel == nil {
			return nil, false
		}
		w := codec.NewWriter("artifact/"+kind, artifactCodecVersion)
		encSel(w, v)
		return w.Bytes(), true
	case artifactComm:
		v, ok := val.(*frozenComm)
		if !ok {
			return nil, false
		}
		w := codec.NewWriter("artifact/"+kind, artifactCodecVersion)
		encComm(w, v)
		return w.Bytes(), true
	case artifactVerify:
		v, ok := val.(*frozenVerify)
		if !ok {
			return nil, false
		}
		w := codec.NewWriter("artifact/"+kind, artifactCodecVersion)
		encVerify(w, v)
		return w.Bytes(), true
	case artifactAnalyze:
		v, ok := val.(*frozenAnalyze)
		if !ok {
			return nil, false
		}
		w := codec.NewWriter("artifact/"+kind, artifactCodecVersion)
		encAnalyze(w, v)
		return w.Bytes(), true
	}
	return nil, false
}

// decodeArtifact is the inverse of encodeArtifact; ok=false covers
// unknown kinds, format-version mismatches, and corrupt bodies — all
// treated as misses by the backing.
func decodeArtifact(kind string, data []byte) (any, bool) {
	r, err := codec.NewReader(data, "artifact/"+kind, artifactCodecVersion)
	if err != nil {
		return nil, false
	}
	switch kind {
	case artifactSel:
		v := decSel(r)
		return v, r.Done() && v.Sel != nil
	case artifactComm:
		v := decComm(r)
		return v, r.Done()
	case artifactVerify:
		v := decVerify(r)
		return v, r.Done()
	case artifactAnalyze:
		v := decAnalyze(r)
		return v, r.Done()
	}
	return nil, false
}

// --- shared leaf encoders ----------------------------------------------------

func encStrings(w *codec.Writer, ss []string) {
	w.Uvarint(uint64(len(ss)))
	for _, s := range ss {
		w.String(s)
	}
}

func decStrings(r *codec.Reader) []string {
	n := r.Uvarint()
	var out []string
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		out = append(out, r.String())
	}
	return out
}

func encInts(w *codec.Writer, vs []int) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Int(v)
	}
}

func decInts(r *codec.Reader) []int {
	n := r.Uvarint()
	var out []int
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		out = append(out, r.Int())
	}
	return out
}

func encAff(w *codec.Writer, a ir.AffExpr) {
	w.Int(a.Const)
	w.Uvarint(uint64(len(a.Terms)))
	for _, t := range a.Terms {
		w.String(t.Name)
		w.Int(t.Coef)
	}
}

func decAff(r *codec.Reader) ir.AffExpr {
	a := ir.AffExpr{Const: r.Int()}
	n := r.Uvarint()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		a.Terms = append(a.Terms, ir.AffTerm{Name: r.String(), Coef: r.Int()})
	}
	return a
}

func encRefSel(w *codec.Writer, s refSel) {
	w.Int(s.Kind)
	w.Int(s.Idx)
}

func decRefSel(r *codec.Reader) refSel {
	return refSel{Kind: r.Int(), Idx: r.Int()}
}

func encCP(w *codec.Writer, c *cp.CP) {
	w.Bool(c != nil)
	if c == nil {
		return
	}
	w.Uvarint(uint64(len(c.Terms)))
	for _, t := range c.Terms {
		w.String(t.Array)
		w.Uvarint(uint64(len(t.Subs)))
		for _, s := range t.Subs {
			w.String(s.Var)
			w.Int(s.Coef)
			encAff(w, s.Off)
			w.Bool(s.IsRange)
			encAff(w, s.Lo)
			encAff(w, s.Hi)
		}
	}
}

func decCP(r *codec.Reader) *cp.CP {
	if !r.Bool() {
		return nil
	}
	c := &cp.CP{}
	n := r.Uvarint()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		t := cp.Term{Array: r.String()}
		ns := r.Uvarint()
		for j := uint64(0); j < ns && r.Err() == nil; j++ {
			t.Subs = append(t.Subs, cp.HomeSub{
				Var:     r.String(),
				Coef:    r.Int(),
				Off:     decAff(r),
				IsRange: r.Bool(),
				Lo:      decAff(r),
				Hi:      decAff(r),
			})
		}
		c.Terms = append(c.Terms, t)
	}
	return c
}

// --- per-tier bodies ---------------------------------------------------------

func encSel(w *codec.Writer, v *frozenSel) {
	ids := make([]int, 0, len(v.Sel.CPs))
	for id := range v.Sel.CPs {
		ids = append(ids, id)
	}
	sort.Ints(ids) // deterministic bytes => chunk-level dedup works
	w.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		w.Int(id)
		encCP(w, v.Sel.CPs[id])
	}
	encCP(w, v.Sel.Entry)
	w.Bool(v.Sel.HasEntry)
	w.Uvarint(uint64(len(v.Sel.Marked)))
	for _, p := range v.Sel.Marked {
		w.Int(p[0])
		w.Int(p[1])
	}
	w.Uvarint(uint64(len(v.Sel.Notes)))
	for _, n := range v.Sel.Notes {
		w.Int(n.Late)
		w.Int(n.Entry)
		w.Int(n.Top)
		w.Int(n.Phase)
		w.Int(n.Loop)
		w.Int(n.Sub)
		w.String(n.Text)
	}
	encInts(w, v.OldIDs)
}

func decSel(r *codec.Reader) *frozenSel {
	ps := &cp.ProcSelection{CPs: map[int]*cp.CP{}}
	n := r.Uvarint()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		id := r.Int()
		ps.CPs[id] = decCP(r)
	}
	ps.Entry = decCP(r)
	ps.HasEntry = r.Bool()
	nm := r.Uvarint()
	for i := uint64(0); i < nm && r.Err() == nil; i++ {
		ps.Marked = append(ps.Marked, [2]int{r.Int(), r.Int()})
	}
	nn := r.Uvarint()
	for i := uint64(0); i < nn && r.Err() == nil; i++ {
		ps.Notes = append(ps.Notes, cp.ProcNote{
			Late: r.Int(), Entry: r.Int(), Top: r.Int(),
			Phase: r.Int(), Loop: r.Int(), Sub: r.Int(),
			Text: r.String(),
		})
	}
	out := &frozenSel{Sel: ps, OldIDs: decInts(r)}
	if r.Err() != nil {
		return &frozenSel{}
	}
	return out
}

func encComm(w *codec.Writer, v *frozenComm) {
	w.Uvarint(uint64(len(v.Events)))
	for _, e := range v.Events {
		w.Int(int(e.Kind))
		w.Int(e.Stmt)
		encRefSel(w, e.Ref)
		w.Int(e.Depth)
		w.Bool(e.Pipelined)
		w.Int(e.Strip)
		w.Bool(e.Eliminated)
		w.String(e.Reason)
	}
	encStrings(w, v.Notes)
	encInts(w, v.OldIDs)
}

func decComm(r *codec.Reader) *frozenComm {
	out := &frozenComm{}
	n := r.Uvarint()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		out.Events = append(out.Events, frozenEvent{
			Kind:       comm.Kind(r.Int()),
			Stmt:       r.Int(),
			Ref:        decRefSel(r),
			Depth:      r.Int(),
			Pipelined:  r.Bool(),
			Strip:      r.Int(),
			Eliminated: r.Bool(),
			Reason:     r.String(),
		})
	}
	out.Notes = decStrings(r)
	out.OldIDs = decInts(r)
	return out
}

func encVerify(w *codec.Writer, v *frozenVerify) {
	encDiagnostics(w, v.Diagnostics)
	w.Int(v.Stmts)
	w.Int(v.Events)
	w.Int(v.Ranks)
	encInts(w, v.OldIDs)
}

func encDiagnostics(w *codec.Writer, ds []verify.Diagnostic) {
	w.Uvarint(uint64(len(ds)))
	for _, d := range ds {
		w.String(d.Check)
		w.String(string(d.Severity))
		w.String(d.Proc)
		w.Int(d.Stmt)
		w.String(d.Ref)
		w.String(d.Set)
		w.String(d.Why)
	}
}

func decDiagnostics(r *codec.Reader) []verify.Diagnostic {
	var out []verify.Diagnostic
	n := r.Uvarint()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		out = append(out, verify.Diagnostic{
			Check:    r.String(),
			Severity: verify.Severity(r.String()),
			Proc:     r.String(),
			Stmt:     r.Int(),
			Ref:      r.String(),
			Set:      r.String(),
			Why:      r.String(),
		})
	}
	return out
}

func encFloat(w *codec.Writer, f float64) { w.Uvarint(math.Float64bits(f)) }
func decFloat(r *codec.Reader) float64    { return math.Float64frombits(r.Uvarint()) }

func encAnalyze(w *codec.Writer, v *frozenAnalyze) {
	w.String(v.Proc.Proc)
	w.Uvarint(uint64(len(v.Proc.Phases)))
	for _, ph := range v.Proc.Phases {
		w.Int(ph.Index)
		w.Int(ph.Stmt)
		w.String(ph.Kind)
		w.Uvarint(uint64(len(ph.Loops)))
		for _, l := range ph.Loops {
			w.Int(l.Stmt)
			w.String(l.Var)
			w.String(l.Bounds)
			w.String(l.Trip)
			w.Int(int(l.Points))
		}
		encFloat(w, ph.Flops)
		encFootprints(w, ph.Reads)
		encFootprints(w, ph.Writes)
		w.Int(ph.CommEvents)
		w.Int(int(ph.CommElems))
		encInt64s(w, ph.PerRankComm)
	}
	encDiagnostics(w, v.Diagnostics)
	encIfaceSets(w, v.Iface.Reads)
	encIfaceSets(w, v.Iface.Writes)
	encInts(w, v.OldIDs)
}

func decAnalyze(r *codec.Reader) *frozenAnalyze {
	out := &frozenAnalyze{}
	out.Proc.Proc = r.String()
	n := r.Uvarint()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		ph := analysis.PhaseSummary{
			Index: r.Int(),
			Stmt:  r.Int(),
			Kind:  r.String(),
		}
		nl := r.Uvarint()
		for k := uint64(0); k < nl && r.Err() == nil; k++ {
			ph.Loops = append(ph.Loops, analysis.LoopSummary{
				Stmt:   r.Int(),
				Var:    r.String(),
				Bounds: r.String(),
				Trip:   r.String(),
				Points: int64(r.Int()),
			})
		}
		ph.Flops = decFloat(r)
		ph.Reads = decFootprints(r)
		ph.Writes = decFootprints(r)
		ph.CommEvents = r.Int()
		ph.CommElems = int64(r.Int())
		ph.PerRankComm = decInt64s(r)
		out.Proc.Phases = append(out.Proc.Phases, ph)
	}
	out.Diagnostics = decDiagnostics(r)
	out.Iface.Reads = decIfaceSets(r)
	out.Iface.Writes = decIfaceSets(r)
	out.OldIDs = decInts(r)
	return out
}

// encIfaceSets encodes a name → integer-set map (a procedure interface
// side) as sorted names with each set's rank and box list.
func encIfaceSets(w *codec.Writer, m map[string]iset.Set) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	w.Uvarint(uint64(len(names)))
	for _, n := range names {
		w.String(n)
		s := m[n]
		w.Uvarint(uint64(s.Rank()))
		boxes := s.Boxes()
		w.Uvarint(uint64(len(boxes)))
		for _, b := range boxes {
			encInts(w, b.Lo)
			encInts(w, b.Hi)
		}
	}
}

func decIfaceSets(r *codec.Reader) map[string]iset.Set {
	out := map[string]iset.Set{}
	n := r.Uvarint()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		name := r.String()
		rank := int(r.Uvarint())
		s := iset.EmptySet(rank)
		nb := r.Uvarint()
		for k := uint64(0); k < nb && r.Err() == nil; k++ {
			lo := decInts(r)
			hi := decInts(r)
			s = s.UnionBox(iset.NewBox(lo, hi))
		}
		out[name] = s
	}
	return out
}

func encFootprints(w *codec.Writer, fs []analysis.Footprint) {
	w.Uvarint(uint64(len(fs)))
	for _, f := range fs {
		w.String(f.Array)
		w.String(f.Set)
		w.Int(int(f.Elems))
	}
}

func decFootprints(r *codec.Reader) []analysis.Footprint {
	var out []analysis.Footprint
	n := r.Uvarint()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		out = append(out, analysis.Footprint{Array: r.String(), Set: r.String(), Elems: int64(r.Int())})
	}
	return out
}

func encInt64s(w *codec.Writer, vs []int64) {
	w.Uvarint(uint64(len(vs)))
	for _, v := range vs {
		w.Int(int(v))
	}
}

func decInt64s(r *codec.Reader) []int64 {
	var out []int64
	n := r.Uvarint()
	for i := uint64(0); i < n && r.Err() == nil; i++ {
		out = append(out, int64(r.Int()))
	}
	return out
}

func decVerify(r *codec.Reader) *frozenVerify {
	out := &frozenVerify{Diagnostics: decDiagnostics(r)}
	out.Stmts = r.Int()
	out.Events = r.Int()
	out.Ranks = r.Int()
	out.OldIDs = decInts(r)
	return out
}
