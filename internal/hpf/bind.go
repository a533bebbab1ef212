package hpf

import (
	"fmt"
	"slices"

	"dhpf/internal/ir"
)

// Binding is the result of resolving a program's HPF directives against a
// concrete parameter binding: every distributed (or aligned) array gets a
// Layout; everything else is replicated.
type Binding struct {
	Grids   map[string]*Grid
	Layouts map[string]*Layout // keyed by array name
	Params  map[string]int
}

// LayoutOf returns the layout of an array, or nil when the array is
// replicated (undistributed).
func (b *Binding) LayoutOf(name string) *Layout { return b.Layouts[name] }

// Bind interprets the program's directives.  params overrides the
// program's default parameter values (nil keeps the defaults).
//
// Alignment resolution: an array aligned with a template inherits the
// template's distribution; its dimension k maps to the template dimension
// AlignDecl.Dims[k].TDim with the declared offset.  An array distributed
// directly acts as its own identity-aligned template.
func Bind(prog *ir.Program, params map[string]int) (*Binding, error) {
	bind := map[string]int{}
	for k, v := range prog.Params {
		bind[k] = v
	}
	for k, v := range params {
		bind[k] = v
	}
	out := &Binding{Grids: map[string]*Grid{}, Layouts: map[string]*Layout{}, Params: bind}
	for _, proc := range prog.Procs {
		if err := checkRefs(proc, bind); err != nil {
			return nil, err
		}
	}

	for _, pd := range prog.Processors {
		shape := make([]int, len(pd.Extents))
		for k, e := range pd.Extents {
			for _, t := range e.Terms {
				if _, ok := bind[t.Name]; !ok {
					return nil, fmt.Errorf("hpf: PROCESSORS %s dimension %d uses unbound parameter %q", pd.Name, k, t.Name)
				}
			}
			shape[k] = e.Eval(bind)
			if shape[k] <= 0 {
				return nil, fmt.Errorf("hpf: PROCESSORS %s dimension %d has non-positive extent %d",
					pd.Name, k, shape[k])
			}
		}
		out.Grids[pd.Name] = NewGrid(pd.Name, shape...)
	}

	templates := map[string]*ir.TemplateDecl{}
	for _, td := range prog.Templates {
		templates[td.Name] = td
	}
	dists := map[string]*ir.DistributeDecl{}
	for _, dd := range prog.Distributes {
		dists[dd.Target] = dd
	}

	declOf := func(array string) *ir.Decl {
		for _, proc := range prog.Procs {
			if d := proc.DeclOf(array); d != nil && d.Rank() > 0 {
				return d
			}
		}
		return nil
	}

	build := func(array string, align *ir.AlignDecl, dd *ir.DistributeDecl, tplExtents []ir.AffExpr) error {
		decl := declOf(array)
		if decl == nil {
			return fmt.Errorf("hpf: directive names undeclared array %q", array)
		}
		grid, ok := out.Grids[dd.Onto]
		if !ok {
			return fmt.Errorf("hpf: distribute onto unknown processors %q", dd.Onto)
		}
		// Every bound, offset and extent below is evaluated now, so each
		// must name parameters only.
		exprs := append(append(slices.Clone(decl.LB), decl.UB...), tplExtents...)
		if align != nil {
			for _, d := range align.Dims {
				exprs = append(exprs, d.Off)
			}
		}
		for _, sp := range dd.Specs {
			exprs = append(exprs, sp.Size)
		}
		for _, e := range exprs {
			for _, t := range e.Terms {
				if _, ok := bind[t.Name]; !ok {
					return fmt.Errorf("hpf: layout of %q uses unbound parameter %q", array, t.Name)
				}
			}
		}
		l := &Layout{Name: array, Grid: grid, Dims: make([]DimLayout, decl.Rank())}
		// Map grid dimensions: the i-th non-* spec uses grid dim i.
		gdimOfSpec := make([]int, len(dd.Specs))
		gi := 0
		for si, sp := range dd.Specs {
			if sp.Kind == ir.DistStar {
				gdimOfSpec[si] = -1
				continue
			}
			if gi >= len(grid.Shape) {
				return fmt.Errorf("hpf: distribute %q has more distributed dims than grid %q", dd.Target, dd.Onto)
			}
			gdimOfSpec[si] = gi
			gi++
		}
		if gi != len(grid.Shape) {
			return fmt.Errorf("hpf: distribute %q uses %d grid dims, grid %q has %d", dd.Target, gi, dd.Onto, len(grid.Shape))
		}
		for k := 0; k < decl.Rank(); k++ {
			lo := decl.LB[k].Eval(bind)
			hi := decl.UB[k].Eval(bind)
			dl := DimLayout{Kind: Star, GridDim: -1, Lo: lo, Hi: hi}
			// Without an ALIGN, the array is its own identity-aligned
			// 0-based template (TplOff = -lo).  With an ALIGN, the
			// declared offset is relative to the 0-based template.
			tdim, toff := k, -lo
			if align != nil {
				if k >= len(align.Dims) {
					return fmt.Errorf("hpf: align of %q has too few dims", array)
				}
				tdim = align.Dims[k].TDim
				if tdim >= 0 {
					toff = align.Dims[k].Off.Eval(bind)
				}
			}
			if tdim >= 0 && tdim < len(dd.Specs) {
				sp := dd.Specs[tdim]
				switch sp.Kind {
				case ir.DistStar:
					// stays Star
				case ir.DistBlock:
					dl.Kind = Block
					dl.GridDim = gdimOfSpec[tdim]
					dl.TplOff = toff
					np := grid.Shape[dl.GridDim]
					extent := hi - lo + 1
					if tplExtents != nil && tdim < len(tplExtents) {
						extent = tplExtents[tdim].Eval(bind)
					}
					if sp.Has {
						dl.BlockSz = sp.Size.Eval(bind)
					} else {
						dl.BlockSz = DefaultBlockSize(extent, np)
					}
					if dl.BlockSz <= 0 {
						return fmt.Errorf("hpf: non-positive block size for %q dim %d", array, k)
					}
				case ir.DistCyclic:
					dl.Kind = Cyclic
					dl.GridDim = gdimOfSpec[tdim]
				}
			}
			l.Dims[k] = dl
		}
		l.setLocal()
		out.Layouts[array] = l
		return nil
	}

	// Arrays distributed directly.
	for _, dd := range prog.Distributes {
		if _, isTpl := templates[dd.Target]; isTpl {
			continue
		}
		if err := build(dd.Target, nil, dd, nil); err != nil {
			return nil, err
		}
	}
	// Arrays aligned with distributed templates.
	for _, ad := range prog.Aligns {
		dd, ok := dists[ad.Template]
		if !ok {
			return nil, fmt.Errorf("hpf: align of %q with undistributed template %q", ad.Array, ad.Template)
		}
		td := templates[ad.Template]
		var ext []ir.AffExpr
		if td != nil {
			ext = td.Extents
		}
		if err := build(ad.Array, ad, dd, ext); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// UnboundNameError reports an affine subscript that names something
// other than a parameter, an enclosing loop variable or a formal of its
// procedure: nothing binds that name when the program runs, and no
// analysis can evaluate it.  (A loop bound must name parameters only:
// cp.NewContext rejects any other.)
type UnboundNameError struct {
	Proc  string
	Name  string
	Array string // whose subscript names it
}

func (e *UnboundNameError) Error() string {
	return fmt.Sprintf("hpf: proc %s: a subscript of %s names %q, which is not a parameter, an enclosing loop variable or a formal", e.Proc, e.Array, e.Name)
}

// checkRefs rejects a procedure that subscripts one array with two
// ranks (its declaration's, or its first reference's when it has none):
// the analyses compare the data sets of same-named references.  It
// rejects a subscript that names anything but a parameter of bind, an
// enclosing loop variable or a formal with an UnboundNameError.
func checkRefs(proc *ir.Procedure, bind map[string]int) error {
	// unbound returns a name of a that nothing binds inside loops, or "".
	unbound := func(a ir.AffExpr, loops []*ir.Loop) string {
		for _, t := range a.Terms {
			if _, ok := bind[t.Name]; ok || slices.Contains(proc.Formals, t.Name) {
				continue
			}
			if !slices.ContainsFunc(loops, func(l *ir.Loop) bool { return l.Var == t.Name }) {
				return t.Name
			}
		}
		return ""
	}
	ranks := map[string]int{}
	for _, d := range proc.Decls {
		if d.Rank() > 0 {
			ranks[d.Name] = d.Rank()
		}
	}
	var err error
	ir.Walk(proc.Body, func(s ir.Stmt, loops []*ir.Loop) bool {
		var refs []*ir.ArrayRef
		switch st := s.(type) {
		case *ir.Assign:
			refs = append(ir.Refs(st.RHS), st.LHS)
		case *ir.CallStmt:
			for _, a := range st.Args {
				refs = append(refs, ir.Refs(a)...)
			}
		}
		for _, r := range refs {
			for _, sub := range r.Subs {
				if name := unbound(sub.Off, loops); name != "" && err == nil {
					err = &UnboundNameError{Proc: proc.Name, Name: name, Array: r.Name}
				}
			}
			want, seen := ranks[r.Name]
			if n := len(r.Subs); n > 0 && !seen { // n == 0: whole array or scalar
				ranks[r.Name] = n
			} else if n > 0 && n != want && err == nil {
				err = fmt.Errorf("hpf: proc %s: array %q has rank %d (its declaration or first reference) but is also referenced with %d subscripts",
					proc.Name, r.Name, want, n)
			}
		}
		return err == nil
	})
	return err
}
