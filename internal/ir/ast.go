package ir

// ---------------------------------------------------------------------------
// Expressions
// ---------------------------------------------------------------------------

// Expr is a run-time value expression (the right-hand sides of
// assignments).  Analyses only inspect the ArrayRef leaves; the arithmetic
// structure is carried for the SPMD interpreter that executes compiled
// programs.
type Expr interface {
	exprNode()
	String() string
	// AppendText appends the text String returns.
	AppendText(dst []byte) []byte
}

// FloatConst is a literal floating-point constant.
type FloatConst struct{ Val float64 }

// IndexRef is the value of an enclosing loop's index variable.
type IndexRef struct{ Name string }

// ParamRef is the value of a symbolic integer parameter (e.g. the problem
// size N), usable in arithmetic.
type ParamRef struct{ Name string }

// ScalarRef reads a scalar variable.
type ScalarRef struct{ Name string }

// Bin is a binary arithmetic operation: + - * /.
type Bin struct {
	Op   byte
	L, R Expr
}

// Intrinsic is a call to a pure math intrinsic (sqrt, exp, sin, cos, min,
// max, abs, mod, pow).
type Intrinsic struct {
	Name string
	Args []Expr
}

func (FloatConst) exprNode() {}
func (IndexRef) exprNode()   {}
func (ParamRef) exprNode()   {}
func (ScalarRef) exprNode()  {}
func (*Bin) exprNode()       {}
func (*Intrinsic) exprNode() {}
func (*ArrayRef) exprNode()  {}

// ---------------------------------------------------------------------------
// Array references and subscripts
// ---------------------------------------------------------------------------

// Subscript is one array-subscript expression of the restricted affine
// form  Coef*Var + Off,  where Var is a loop index variable (Var == ""
// denotes a loop-invariant subscript) and Off is affine in symbolic
// parameters.  Coef is restricted to ±1 (or 0 via Var == ""), matching the
// subscript forms the dHPF integer-set framework handles exactly.
type Subscript struct {
	Var  string
	Coef int
	Off  AffExpr
}

// SubVar returns the subscript v+off for loop variable v.
func SubVar(v string, off int) Subscript {
	return Subscript{Var: v, Coef: 1, Off: Num(off)}
}

// SubConst returns a loop-invariant subscript.
func SubConst(a AffExpr) Subscript { return Subscript{Off: a} }

// Eq reports structural equality.
func (s Subscript) Eq(t Subscript) bool {
	if s.Var != t.Var {
		return false
	}
	if s.Var != "" && s.Coef != t.Coef {
		return false
	}
	return s.Off.Eq(t.Off)
}

// ArrayRef is a reference to array Name with affine subscripts.  A
// zero-subscript ArrayRef passed as a call argument denotes the whole
// array.
type ArrayRef struct {
	Name string
	Subs []Subscript
}

// NewRef builds an ArrayRef.
func NewRef(name string, subs ...Subscript) *ArrayRef {
	return &ArrayRef{Name: name, Subs: subs}
}

// Eq reports whether two references are structurally identical.
func (r *ArrayRef) Eq(o *ArrayRef) bool {
	if r.Name != o.Name || len(r.Subs) != len(o.Subs) {
		return false
	}
	for k := range r.Subs {
		if !r.Subs[k].Eq(o.Subs[k]) {
			return false
		}
	}
	return true
}

// ---------------------------------------------------------------------------
// Statements
// ---------------------------------------------------------------------------

// Stmt is a statement in a procedure body.
type Stmt interface {
	stmtNode()
	StmtID() int
}

// Assign is LHS = RHS.  A scalar assignment has a LHS with no subscripts.
type Assign struct {
	ID  int
	LHS *ArrayRef
	RHS Expr
}

// Loop is a DO loop with affine bounds and unit step (Step ∈ {1,-1}).
// HPF directives attach to the loop: Independent (asserted parallel), New
// (privatizable variables), Localize (dhpf's partial-replication
// extension, §4.2 of the paper).
type Loop struct {
	ID          int
	Var         string
	Lo, Hi      AffExpr
	Step        int
	Body        []Stmt
	Independent bool
	New         []string
	Localize    []string
}

// CallStmt invokes procedure Callee.  Array actuals appear as ArrayRefs;
// a zero-subscript ArrayRef passes the whole array.
type CallStmt struct {
	ID     int
	Callee string
	Args   []Expr
}

// Cond is a comparison between two expressions.  Conditions are
// restricted to loop indices, parameters and constants so that control
// flow is identical on every processor (guards over distributed data
// would require the CP machinery to broadcast the condition).
type Cond struct {
	L  Expr
	Op string // < > <= >= == /=
	R  Expr
}

// IfStmt is a two-armed conditional.
type IfStmt struct {
	ID   int
	Cond Cond
	Then []Stmt
	Else []Stmt
}

func (*Assign) stmtNode()   {}
func (*Loop) stmtNode()     {}
func (*CallStmt) stmtNode() {}
func (*IfStmt) stmtNode()   {}

func (s *Assign) StmtID() int   { return s.ID }
func (s *Loop) StmtID() int     { return s.ID }
func (s *CallStmt) StmtID() int { return s.ID }
func (s *IfStmt) StmtID() int   { return s.ID }

// ---------------------------------------------------------------------------
// Declarations and directives
// ---------------------------------------------------------------------------

// Decl declares an array (or scalar, with no dimensions) of float64
// elements.  Each dimension has inclusive affine bounds [LB:UB].
type Decl struct {
	Name   string
	LB, UB []AffExpr // equal length; empty for scalars
	Dummy  bool      // true for procedure dummy arguments
}

// Rank returns the number of array dimensions (0 for scalars).
func (d *Decl) Rank() int { return len(d.LB) }

// DistKind is one HPF distribution format for one dimension.
type DistKind int

const (
	DistStar  DistKind = iota // * : dimension not distributed
	DistBlock                 // BLOCK or BLOCK(n)
	DistCyclic
)

func (k DistKind) String() string {
	switch k {
	case DistStar:
		return "*"
	case DistBlock:
		return "BLOCK"
	case DistCyclic:
		return "CYCLIC"
	}
	return "?"
}

// DistSpec is the distribution format of one dimension.
type DistSpec struct {
	Kind DistKind
	Size AffExpr // optional BLOCK(n) size; zero ⇒ default block size
	Has  bool    // whether Size was given
}

// ProcessorsDecl declares a named processor arrangement.
type ProcessorsDecl struct {
	Name    string
	Extents []AffExpr
}

// TemplateDecl declares a named HPF template.
type TemplateDecl struct {
	Name    string
	Extents []AffExpr
}

// AlignDim maps one array dimension onto a template dimension with an
// offset:  array dim k  aligns with  template dim TDim at position
// (index + Off).  Collapsed (broadcast) dimensions use TDim = -1.
type AlignDim struct {
	TDim int
	Off  AffExpr
}

// AlignDecl aligns an array with a template.
type AlignDecl struct {
	Array    string
	Template string
	Dims     []AlignDim
}

// DistributeDecl distributes a template (or an unaligned array, treated as
// its own implicit template) over a processor arrangement.
type DistributeDecl struct {
	Target string
	Onto   string
	Specs  []DistSpec
}

// ---------------------------------------------------------------------------
// Procedures and programs
// ---------------------------------------------------------------------------

// Procedure is a subroutine: dummy arguments, local declarations, body.
type Procedure struct {
	Name    string
	Formals []string // names of dummy arguments, in order (arrays or scalars)
	Decls   []*Decl
	Body    []Stmt
}

// DeclOf returns the declaration of the named variable, or nil.
func (p *Procedure) DeclOf(name string) *Decl {
	for _, d := range p.Decls {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// Program is a whole mini-HPF compilation unit.
type Program struct {
	Name        string
	Params      map[string]int // symbolic parameters with default values
	Processors  []*ProcessorsDecl
	Templates   []*TemplateDecl
	Aligns      []*AlignDecl
	Distributes []*DistributeDecl
	Procs       []*Procedure

	nextID int
}

// NewProgram returns an empty program.
func NewProgram(name string) *Program {
	return &Program{Name: name, Params: map[string]int{}, nextID: 1}
}

// NewStmtID allocates a fresh statement id.
func (p *Program) NewStmtID() int {
	id := p.nextID
	p.nextID++
	return id
}

// MaxStmtID returns an exclusive upper bound on allocated statement ids.
func (p *Program) MaxStmtID() int { return p.nextID }

// Proc returns the named procedure, or nil.
func (p *Program) Proc(name string) *Procedure {
	for _, pr := range p.Procs {
		if pr.Name == name {
			return pr
		}
	}
	return nil
}

// Main returns the first procedure named "main", else the first procedure.
func (p *Program) Main() *Procedure {
	if m := p.Proc("main"); m != nil {
		return m
	}
	if len(p.Procs) > 0 {
		return p.Procs[0]
	}
	return nil
}

// DeclOf resolves a name inside proc: local declarations first, then any
// global declaration found in other procedures is not visible — the mini
// language has no COMMON blocks; cross-procedure data flows through
// arguments.
func (p *Program) DeclOf(proc *Procedure, name string) *Decl {
	return proc.DeclOf(name)
}
