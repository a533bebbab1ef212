// Package dep implements data-dependence analysis for the mini-HPF IR:
// ZIV and strong-SIV subscript tests over the restricted affine subscript
// forms, distance/direction vectors over common loop nests, and the
// loop-independent vs loop-carried classification that drives the
// communication-sensitive loop distribution of SC'98 §5 and the data
// availability analysis of §7.  It also validates NEW (privatizable)
// directives and recognizes reductions.
package dep

import (
	"fmt"

	"dhpf/internal/ir"
)

// Kind classifies a dependence by the access types of its endpoints.
type Kind int

const (
	Flow   Kind = iota // write → read (true dependence)
	Anti               // read → write
	Output             // write → write
	Input              // read → read (only reported when requested)
)

func (k Kind) String() string {
	switch k {
	case Flow:
		return "flow"
	case Anti:
		return "anti"
	case Output:
		return "output"
	case Input:
		return "input"
	}
	return "?"
}

// Dist is one component of a distance vector.
type Dist struct {
	Known bool
	D     int // valid when Known
}

func (d Dist) String() string {
	if !d.Known {
		return "*"
	}
	return fmt.Sprintf("%d", d.D)
}

// Dependence records that DstRef in Dst depends on SrcRef in Src: some
// iteration of Dst accesses a location that an earlier-or-equal iteration
// of Src accessed, with at least one access a write.
type Dependence struct {
	Kind     Kind
	Src, Dst *ir.Assign
	SrcRef   *ir.ArrayRef
	DstRef   *ir.ArrayRef
	// CommonNest is the loop nest shared by Src and Dst, outermost first.
	CommonNest []*ir.Loop
	// Distance has one entry per common loop: iteration distance from the
	// source iteration to the destination iteration.
	Distance []Dist
	// Level is 1-based index of the carrying loop in CommonNest, or 0 for
	// a loop-independent dependence.
	Level int
}

// LoopIndependent reports whether the dependence holds within a single
// iteration of every common loop.
func (d *Dependence) LoopIndependent() bool { return d.Level == 0 }

// CarriedBy reports whether the dependence is carried by the given loop.
func (d *Dependence) CarriedBy(l *ir.Loop) bool {
	return d.Level >= 1 && d.Level <= len(d.CommonNest) && d.CommonNest[d.Level-1] == l
}

func (d *Dependence) String() string {
	return fmt.Sprintf("%s dep %v -> %v dist %v level %d",
		d.Kind, d.SrcRef, d.DstRef, d.Distance, d.Level)
}

// access pairs a reference with its statement, nest and whether it writes.
type access struct {
	ref   *ir.ArrayRef
	stmt  *ir.Assign
	nest  []*ir.Loop
	write bool
	order int // textual order of the statement
}

// analyzed, when set, is called once per Analyze: the test hook
// (export_test.go) that counts how often a compile derives dependences.
var analyzed func()

// Analyze computes the dependences among the assignments of a body.
// Input (read-read) dependences are omitted.  Scalar accesses (rank-0
// refs) participate: every pair of same-iteration or cross-iteration
// scalar write/read conflicts is reported with the appropriate distances
// (a scalar behaves like an array reference with zero dimensions, always
// overlapping).
func Analyze(body []ir.Stmt) []*Dependence {
	if analyzed != nil {
		analyzed()
	}
	var accs []access
	order := 0
	ir.Walk(body, func(s ir.Stmt, loops []*ir.Loop) bool {
		a, ok := s.(*ir.Assign)
		if !ok {
			return true
		}
		order++
		nest := make([]*ir.Loop, len(loops))
		copy(nest, loops)
		accs = append(accs, access{ref: a.LHS, stmt: a, nest: nest, write: true, order: order})
		for _, r := range ir.Refs(a.RHS) {
			accs = append(accs, access{ref: r, stmt: a, nest: nest, write: false, order: order})
		}
		// Scalar reads on the RHS.
		for _, name := range ir.ScalarReads(a.RHS) {
			accs = append(accs, access{ref: &ir.ArrayRef{Name: name}, stmt: a, nest: nest, write: false, order: order})
		}
		return true
	})

	// Pair each access with the accesses of the same name only; the
	// dependences still come out i-major, j-minor over accs.
	byName := map[string][]*access{}
	depth := 0
	for i := range accs {
		a := &accs[i]
		byName[a.ref.Name] = append(byName[a.ref.Name], a)
		depth = max(depth, len(a.nest))
	}
	t := tester{dist: make([]Dist, depth), constrained: make([]bool, depth), unknown: make([]Dist, depth), zero: make([]Dist, depth)}
	for i := range t.zero {
		t.zero[i] = Dist{Known: true}
	}
	for i := range accs {
		a := &accs[i]
		for _, b := range byName[a.ref.Name] {
			if a.write || b.write {
				t.testPair(a, b)
			}
		}
	}
	return t.deps
}

// tester is the state of one Analyze: the dependences found so far, the
// per-pair scratch vectors, and the two constant distance vectors every
// dependence of a given depth shares (Distance is never written).
type tester struct {
	deps          []*Dependence
	dist          []Dist
	constrained   []bool
	unknown, zero []Dist
	chunk         []Dependence // Dependences are allocated 64 at a time
	slab          []Dist       // kept distance vectors, 64 at a time
}

// testPair tests for a dependence with source a and destination b: does
// some iteration of a conflict with a not-earlier iteration of b?  A pair
// whose distance vector admits both the all-zero vector and a
// lexicographically positive vector (e.g. scalar accesses, distances
// unconstrained by any subscript) yields two dependences: one
// loop-independent and one carried at the outermost carriable level —
// the standard level-wise decomposition of a direction vector.
func (t *tester) testPair(a, b *access) {
	common := ir.CommonPrefix(a.nest, b.nest)
	if len(a.ref.Subs) != len(b.ref.Subs) {
		// Whole-array vs element reference: conservative dependence with
		// unknown distances.
		t.emit(a, b, common, t.unknown[:len(common):len(common)], true)
		return
	}

	// For each common loop, derive the distance constraint implied by the
	// subscript pair(s) that use its index variable.
	dist, constrained := t.dist[:len(common)], t.constrained[:len(common)]
	clear(dist)
	clear(constrained)
	for k := range a.ref.Subs {
		sa, sb := a.ref.Subs[k], b.ref.Subs[k]
		switch {
		case sa.Var == "" && sb.Var == "":
			// ZIV: both loop-invariant.  Distinct constant offsets can
			// never overlap; symbolic differences are conservatively
			// assumed to overlap.
			if c, ok := sa.Off.ConstDiff(sb.Off); ok && c != 0 {
				return
			}
		case sa.Var != "" && sa.Var == sb.Var && sa.Coef == sb.Coef:
			// Strong SIV on a shared variable: a at iteration i and b at
			// iteration i' touch the same element iff
			// coef*i + ca = coef*i' + cb  ⇒  i' - i = (ca-cb)/coef.
			li := indexOfVar(common, sa.Var)
			if li < 0 {
				// Variable not in the common nest (sibling loops with the
				// same name): the ranges may overlap; treat as
				// unconstrained.
				continue
			}
			c, ok := sa.Off.ConstDiff(sb.Off)
			if !ok {
				// Symbolic distance: unknown.
				constrained[li] = true
				dist[li] = Dist{Known: false}
				continue
			}
			d := c * sa.Coef // (ca-cb)/coef with coef ∈ {1,-1}
			if constrained[li] && dist[li].Known && dist[li].D != d {
				// Two subscript pairs demand inconsistent distances.
				return
			}
			if !constrained[li] || dist[li].Known {
				dist[li] = Dist{Known: true, D: d}
			}
			constrained[li] = true
		default:
			// Weak SIV / MIV / mixed: conservative, leave the loop (if
			// any) unconstrained ⇒ unknown distance.
			if sa.Var != "" {
				if li := indexOfVar(common, sa.Var); li >= 0 {
					if !constrained[li] || !dist[li].Known || dist[li].D != 0 {
						constrained[li] = true
						dist[li] = Dist{Known: false}
					}
				}
			}
			if sb.Var != "" && sb.Var != sa.Var {
				if li := indexOfVar(common, sb.Var); li >= 0 {
					if !constrained[li] || !dist[li].Known || dist[li].D != 0 {
						constrained[li] = true
						dist[li] = Dist{Known: false}
					}
				}
			}
		}
	}
	// Loops never constrained by any subscript: both statements access
	// the same element on every iteration ⇒ distance can be anything.
	for li := range dist {
		if !constrained[li] {
			dist[li] = Dist{Known: false}
		}
	}

	t.emit(a, b, common, dist, false)
}

// emit decomposes a distance vector into its dependence instances,
// level-wise (the standard direction-vector decomposition):
//
//   - a carried dependence at *every* level k where all outer components
//     admit zero and component k admits a positive trip count (distance ×
//     step > 0) — e.g. (∗, +1) inside a time-step loop is carried both by
//     the step loop and by the inner loop;
//   - a loop-independent dependence when every component admits zero and
//     the source textually precedes the destination.
//
// A known component with a non-zero value stops the scan after its own
// level (deeper levels would need it to be zero); a known strictly
// negative trip count means the direction at that level is backward.
//
// The carried instances share one distance vector: dist itself when the
// caller lets go of it (keep), a copy of the scratch from the slab
// otherwise.
func (t *tester) emit(a, b *access, common []*ir.Loop, dist []Dist, keep bool) {
	// Carried dependences at every carriable level.
	zeroOK := true
	for li, d := range dist {
		if !d.Known || d.D*common[li].Step > 0 {
			if !keep {
				dist, keep = t.kept(dist), true
			}
			t.add(a, b, common, dist, li+1)
		}
		if d.Known && d.D != 0 {
			zeroOK = false
			break // deeper levels need this component to be zero
		}
	}

	// Loop-independent instance.
	if zeroOK && a.stmt != b.stmt && a.order < b.order {
		t.add(a, b, common, t.zero[:len(dist):len(dist)], 0)
	}
}

// kept returns a copy of dist cut from the tester's slab, capacity-clipped
// so that no later vector shares its backing.
func (t *tester) kept(dist []Dist) []Dist {
	if len(t.slab) < len(dist) {
		t.slab = make([]Dist, 64*len(t.dist))
	}
	out := t.slab[:len(dist):len(dist)]
	t.slab = t.slab[len(dist):]
	copy(out, dist)
	return out
}

func (t *tester) add(a, b *access, common []*ir.Loop, dist []Dist, level int) {
	if len(t.chunk) == 0 {
		t.chunk = make([]Dependence, 64)
	}
	d := &t.chunk[0]
	t.chunk = t.chunk[1:]
	*d = Dependence{
		Src: a.stmt, Dst: b.stmt,
		SrcRef: a.ref, DstRef: b.ref,
		CommonNest: common,
		Distance:   dist,
		Level:      level,
	}
	switch {
	case a.write && b.write:
		d.Kind = Output
	case a.write:
		d.Kind = Flow
	default: // b writes: Analyze pairs no two reads
		d.Kind = Anti
	}
	t.deps = append(t.deps, d)
}

func indexOfVar(nest []*ir.Loop, v string) int {
	for i, l := range nest {
		if l.Var == v {
			return i
		}
	}
	return -1
}

// LoopIndependentDeps filters to the loop-independent dependences whose
// endpoints both sit (possibly nested) inside the given loop.
func LoopIndependentDeps(deps []*Dependence, l *ir.Loop) []*Dependence {
	var out []*Dependence
	for _, d := range deps {
		if !d.LoopIndependent() {
			continue
		}
		if nestContains(d.CommonNest, l) {
			out = append(out, d)
		}
	}
	return out
}

// CarriedDeps filters to dependences carried by the given loop.
func CarriedDeps(deps []*Dependence, l *ir.Loop) []*Dependence {
	var out []*Dependence
	for _, d := range deps {
		if d.CarriedBy(l) {
			out = append(out, d)
		}
	}
	return out
}

func nestContains(nest []*ir.Loop, l *ir.Loop) bool {
	for _, x := range nest {
		if x == l {
			return true
		}
	}
	return false
}
