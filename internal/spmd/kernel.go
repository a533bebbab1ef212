package spmd

// kernel.go defines the native-kernel contract between the engine and
// internal/codegen: the exported, serializable spec of a specializable
// loop nest (KernelUnit), the ABI of a compiled kernel function, the
// content-addressed fingerprint a generated kernel is registered under,
// and the process-wide kernel registry.
//
// A kernel unit is a maximal loop subtree of a compute nest: all
// transfers, reductions and pipelined exchanges attached to the root loop
// fire outside the iteration (the walker's loop boundary), so replacing
// the walker's iteration of the loop with one flat compiled function is
// unobservable as long as that function performs the same floating-point
// operations, flop accumulation, guard decisions and stores in the same
// order.  One spec, one runtime precheck (kernel_invoke.go), two back
// ends that run behind it: the emitted Go source (internal/codegen) and
// the in-process evaluator (kernel_eval.go), the default.  The
// fingerprint ties an emitted kernel to the spec, so a registered kernel
// is reused by every program containing a structurally identical unit
// regardless of which program it was generated from.
//
// The unit grammar's operator tables live here too: what kextract admits
// is exactly what the back ends implement.

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"sync"
)

// KernelABI names the kernel calling convention; it participates in the
// unit fingerprint so a registry populated by an older generator can
// never serve a newer engine.
const KernelABI = "dhpf-kernel-v2"

// KernelGuardBoxes is the guard-box capacity the ABI reserves in
// bounds[] for a statement whose CP has more than one ON_HOME term (a
// partially replicated CP such as LOCALIZE's owner ∪ halo faces, whose
// per-rank iteration set is a union of boxes).  An invocation whose
// guard needs more boxes than this bails: the walker interprets it.
const KernelGuardBoxes = 8

// KernelFunc is the compiled form of one kernel unit: the signature of
// every function internal/codegen/gen emits.  It names only builtin
// types, so the emitted code needs nothing of this package but
// RegisterKernel.
//
//   - ints/intSet: the rank's global integer slots (read-only; kernel
//     loop variables live in locals, never written back to slots).
//   - floats/fset: the current frame's scalar slots (a scalar store
//     writes both: the value and its presence).
//   - arrays: per-unit array data slices, in KernelUnit.Arrays order.
//   - bounds: per-invocation window and guard-box values packed by the
//     runtime precheck (see KernelUnit bounds layout).
//   - flops: the running flop accumulator; the kernel adds each executed
//     statement's flop cost in iteration order and returns the result.
type KernelFunc = func(ints []int, intSet []bool, floats []float64, fset []bool,
	arrays [][]float64, bounds []int, flops float64) float64

// --- kernel unit spec ----------------------------------------------------------

// KAff is an affine form const + Σ coef·var over kernel loop locals and
// integer slots, mirroring ir.AffExpr after name resolution.
type KAff struct {
	Const int
	Terms []KTerm
}

// KTerm is one affine term.  Local terms read an in-scope kernel loop
// variable (by level); slot terms read the rank's integer slot, whose
// value is fixed for the whole kernel invocation.
type KTerm struct {
	Coef  int
	Local bool
	Level int // kernel loop level when Local
	Slot  int // global int slot otherwise
}

// KSub is one array subscript Coef·var + Off.
type KSub struct {
	HasVar   bool
	Coef     int
	VarLocal bool
	Level    int // when VarLocal
	VarSlot  int // otherwise
	Off      KAff
}

// KArray describes one array the unit touches: its frame slot plus the
// exact geometry the emitted code inlines as constants.  The runtime
// precheck compares the live array against this geometry and bails on
// any mismatch.
type KArray struct {
	ASlot  int
	Name   string
	Lo     []int
	Hi     []int
	Stride []int
}

// KRefCheck is one array access (read or write) the runtime precheck
// must prove in-bounds by interval analysis before the kernel may run
// (the emitted code has no bounds checks).
type KRefCheck struct {
	Arr  int // index into KernelUnit.Arrays
	Subs []KSub
}

// KExpr is a kernel expression tree node.
type KExpr interface{ kExpr() }

// KConst is a floating-point literal (emitted as an exact hex literal).
type KConst struct{ Val float64 }

// KLocal reads an in-scope kernel loop variable as float64.
type KLocal struct{ Level int }

// KSlotInt reads an integer slot (param, formal, or out-of-scope loop
// variable) as float64; hoisted to a local at kernel entry.
type KSlotInt struct{ Slot int }

// KScalar is a dynamic scalar read: floats[FSlot] if set, else the
// integer slot as float64 if bound, else 0 — the interpreter's ScalarRef
// semantics verbatim.
type KScalar struct{ FSlot, ISlot int }

// KScalarLocal is a scalar read whose name is an in-scope kernel loop
// variable: floats[FSlot] if set, else the loop local (inside the loop
// the variable is always bound).
type KScalarLocal struct {
	FSlot int
	Level int
}

// KARead reads arrays[Arr] at the given subscripts.
type KARead struct {
	Arr  int
	Subs []KSub
}

// KBin is a binary float op; Op is one of kbinOps.  Each emitted
// operation is wrapped in float64(...) so the Go compiler may not fuse
// it (no FMA): results stay bit-identical to the interpreter's.
type KBin struct {
	Op   byte
	L, R KExpr
}

// kbinOps are the binary operators the unit grammar admits.
const kbinOps = "+-*/"

// KIntrin is an intrinsic call of kintrinsics, at its arity.
type KIntrin struct {
	Name string
	Args []KExpr
}

// kintrinsic is one intrinsic the unit grammar admits: its arity and the
// math function both back ends call (f1 or f2, by arity).
type kintrinsic struct {
	arity  int
	goName string
	f1     func(float64) float64
	f2     func(float64, float64) float64
}

var kintrinsics = map[string]kintrinsic{
	"sqrt": {1, "math.Sqrt", math.Sqrt, nil},
	"exp":  {1, "math.Exp", math.Exp, nil},
	"sin":  {1, "math.Sin", math.Sin, nil},
	"cos":  {1, "math.Cos", math.Cos, nil},
	"log":  {1, "math.Log", math.Log, nil},
	"abs":  {1, "math.Abs", math.Abs, nil},
	"min":  {2, "math.Min", nil, math.Min},
	"max":  {2, "math.Max", nil, math.Max},
	"mod":  {2, "math.Mod", nil, math.Mod},
	"pow":  {2, "math.Pow", nil, math.Pow},
}

// GoFunc names the math function the intrinsic calls, for the emitter.
func (x *KIntrin) GoFunc() string { return kintrinsics[x.Name].goName }

func (KConst) kExpr()       {}
func (KLocal) kExpr()       {}
func (KSlotInt) kExpr()     {}
func (KScalar) kExpr()      {}
func (KScalarLocal) kExpr() {}
func (*KARead) kExpr()      {}
func (*KBin) kExpr()        {}
func (*KIntrin) kExpr()     {}

// KStmt is a kernel body statement.
type KStmt interface{ kStmt() }

// KLoop is one kernel loop level.  bounds[WinIdx] and bounds[WinIdx+1]
// hold the invocation's [winLo, winHi] value window (strip ∩ clamp ∩ the
// reach of the guard boxes packed beneath the level), applied exactly
// like the walker's strip clamp: step>0 runs max(lo,winLo)..min(hi,winHi);
// step<0 runs min(lo,winHi) down to max(hi,winLo).
type KLoop struct {
	Var      string
	Slot     int // the variable's global int slot (restore semantics doc only)
	Level    int // dense kernel-local level index; locals are named i<Level>
	Step     int // ±1
	Lo, Hi   KAff
	ClampIdx int // frame clamp index, -1 when not clampable
	WinIdx   int // bounds[] index of this level's window pair
	Body     []KStmt
}

// KAssign is one guarded assignment.  Its guard is a union of boxes over
// the kernel-scope dimensions; outer-nest dimensions are checked once by
// the precheck, not per point.  With MaxBoxes == 1 (a CP of at most one
// term yields at most one box) bounds[BoundsIdx : BoundsIdx+2·KDims]
// holds that box's lo/hi pairs ([1,0] pairs when the statement is
// disabled for this invocation).  Otherwise bounds[BoundsIdx] holds the
// number n of packed boxes and box b's pairs start at
// bounds[BoundsIdx+1+b·2·KDims], for b < n ≤ MaxBoxes; a point passes
// when any packed box contains it.
type KAssign struct {
	GuardIdx  int   // index into the frame's guard table (precheck input)
	NestSlots []int // full-nest slots, outer dims first (precheck input)
	Levels    []int // kernel levels enclosing this stmt, nest order
	BoundsIdx int
	KDims     int // == len(Levels); guard dims checked per point
	MaxBoxes  int // guard-box capacity: 1, or KernelGuardBoxes for a multi-term CP
	Scalar    bool
	FSlot     int    // scalar store
	Arr       int    // array store
	Subs      []KSub // array store subscripts
	RHS       KExpr
	Flops     float64
	Refs      []KRefCheck // every array access (LHS last), for the precheck

	// ord numbers the statement among the unit statements of its procedure
	// (the frame's proof bits, kernel_invoke.go); boxRefs is Refs over the
	// statement's guard box — a kernel level reads box dimension
	// RootDepth+d, an outer-nest slot its dimension k — or nil, and every
	// precheck packing a box of it bails, when a subscript reads a slot
	// that may change within an activation.
	ord     int
	boxRefs []KRefCheck
}

// KIf mirrors ir.IfStmt: the condition is evaluated at every enclosing
// iteration point (it is panic-free by eligibility), then one arm runs.
type KIf struct {
	Op   string // a key of kcompare
	L, R KExpr
	Then []KStmt
	Els  []KStmt
}

// kcompare are the comparisons the unit grammar admits.
var kcompare = map[string]func(l, r float64) bool{
	"<":  func(l, r float64) bool { return l < r },
	">":  func(l, r float64) bool { return l > r },
	"<=": func(l, r float64) bool { return l <= r },
	">=": func(l, r float64) bool { return l >= r },
	"==": func(l, r float64) bool { return l == r },
	"/=": func(l, r float64) bool { return l != r },
}

func (*KLoop) kStmt()   {}
func (*KAssign) kStmt() {}
func (*KIf) kStmt()     {}

// KernelUnit is the complete spec of one specializable loop nest.
type KernelUnit struct {
	Proc      string
	RootID    int // ir statement ID of the root loop
	RootDepth int // loops enclosing the root within the procedure
	Root      *KLoop
	Arrays    []KArray
	NumLevels int
	NumBounds int // total bounds[] length the invocation must pack
	// SlotNames documents the integer slots the unit reads (sorted slot →
	// name); informational, and part of the fingerprint so slot layout
	// changes cannot alias two different programs' units.
	SlotNames map[int]string
	// Points is a static per-invocation iteration-point estimate from the
	// declared loop bounds (0 when data-dependent); codegen uses it with
	// analysis.Predict to skip units too small to be worth specializing.
	Points float64

	// The fingerprint, hashed once: concurrent executions of one Program
	// on the codegen engine all ask for it.
	fpOnce sync.Once
	fp     string

	// What an invocation loads and stores back (runUnit): the integer
	// names the unit or its precheck reads, the scalars it reads or may
	// store, and of those the ones it may store; pp is its procedure's
	// numbering, which the frame's array slots, guards and clamps follow.
	pp                   *procPlan
	ints, floats, stores []slotName
	// pidx numbers the unit among its procedure's, lvBase its levels,
	// kaBase its arrays and outBase its outer dimensions' lo, hi pairs
	// among theirs: where the frame keeps its activation state (unitAct,
	// levelAct, kas, outer).  outer are the slots of the loops enclosing
	// the root, every statement's outer point.
	pidx, lvBase, kaBase, outBase int
	outer                         []int

	// The in-process evaluator (kernel_eval.go), shared by every rank of
	// every execution.
	ev *keval
}

type slotName struct {
	name string
	slot int
	walk int // of ints: the name's walker slot (sched.Schedule.Slot)
}

// Fingerprint returns the unit's content hash: a SHA-256 over a
// canonical encoding of the whole spec (ABI tag, loop structure,
// variable names, slot numbers, affine coefficients, array geometry,
// guard layout and capacity, and exact flop bits).  Two units share a
// fingerprint iff a single compiled kernel can serve both.
func (u *KernelUnit) Fingerprint() string {
	u.fpOnce.Do(func() { u.fp = u.fingerprint() })
	return u.fp
}

func (u *KernelUnit) fingerprint() string {
	h := sha256.New()
	w := func(vals ...interface{}) {
		for _, v := range vals {
			switch x := v.(type) {
			case string:
				var n [8]byte
				binary.LittleEndian.PutUint64(n[:], uint64(len(x)))
				h.Write(n[:])
				h.Write([]byte(x))
			case int:
				var n [8]byte
				binary.LittleEndian.PutUint64(n[:], uint64(int64(x)))
				h.Write(n[:])
			case bool:
				if x {
					h.Write([]byte{1})
				} else {
					h.Write([]byte{0})
				}
			case byte:
				h.Write([]byte{x})
			case float64:
				var n [8]byte
				binary.LittleEndian.PutUint64(n[:], math.Float64bits(x))
				h.Write(n[:])
			default:
				panic(fmt.Sprintf("spmd: kernel fingerprint: unhashable %T", v))
			}
		}
	}
	w(KernelABI, u.Proc, u.RootDepth, u.NumLevels, u.NumBounds)
	w("arrays", len(u.Arrays))
	for _, a := range u.Arrays {
		w(a.ASlot, a.Name, len(a.Lo))
		for k := range a.Lo {
			w(a.Lo[k], a.Hi[k], a.Stride[k])
		}
	}
	slots := make([]int, 0, len(u.SlotNames))
	for s := range u.SlotNames {
		slots = append(slots, s)
	}
	sort.Ints(slots)
	w("slots", len(slots))
	for _, s := range slots {
		w(s, u.SlotNames[s])
	}
	hashStmt(w, u.Root)
	return hex.EncodeToString(h.Sum(nil))
}

func hashAff(w func(...interface{}), a KAff) {
	w("aff", a.Const, len(a.Terms))
	for _, t := range a.Terms {
		w(t.Coef, t.Local, t.Level, t.Slot)
	}
}

func hashSub(w func(...interface{}), s KSub) {
	w("sub", s.HasVar, s.Coef, s.VarLocal, s.Level, s.VarSlot)
	hashAff(w, s.Off)
}

func hashExpr(w func(...interface{}), e KExpr) {
	switch x := e.(type) {
	case KConst:
		w("const", x.Val)
	case KLocal:
		w("local", x.Level)
	case KSlotInt:
		w("slotint", x.Slot)
	case KScalar:
		w("scalar", x.FSlot, x.ISlot)
	case KScalarLocal:
		w("scalarlocal", x.FSlot, x.Level)
	case *KARead:
		w("aread", x.Arr, len(x.Subs))
		for _, s := range x.Subs {
			hashSub(w, s)
		}
	case *KBin:
		w("bin", x.Op)
		hashExpr(w, x.L)
		hashExpr(w, x.R)
	case *KIntrin:
		w("intrin", x.Name, len(x.Args))
		for _, a := range x.Args {
			hashExpr(w, a)
		}
	default:
		panic(fmt.Sprintf("spmd: kernel fingerprint: unknown expr %T", e))
	}
}

func hashStmt(w func(...interface{}), s KStmt) {
	switch x := s.(type) {
	case *KLoop:
		w("loop", x.Var, x.Slot, x.Level, x.Step, x.ClampIdx, x.WinIdx, len(x.Body))
		hashAff(w, x.Lo)
		hashAff(w, x.Hi)
		for _, b := range x.Body {
			hashStmt(w, b)
		}
	case *KAssign:
		w("assign", x.GuardIdx, len(x.NestSlots))
		for _, sl := range x.NestSlots {
			w(sl)
		}
		w(len(x.Levels))
		for _, lv := range x.Levels {
			w(lv)
		}
		w(x.BoundsIdx, x.KDims, x.MaxBoxes, x.Scalar, x.FSlot, x.Arr, len(x.Subs))
		for _, sb := range x.Subs {
			hashSub(w, sb)
		}
		hashExpr(w, x.RHS)
		w(x.Flops)
	case *KIf:
		w("if", x.Op)
		hashExpr(w, x.L)
		hashExpr(w, x.R)
		w(len(x.Then))
		for _, b := range x.Then {
			hashStmt(w, b)
		}
		w(len(x.Els))
		for _, b := range x.Els {
			hashStmt(w, b)
		}
	default:
		panic(fmt.Sprintf("spmd: kernel fingerprint: unknown stmt %T", s))
	}
}

// --- kernel registry -----------------------------------------------------------

var kernelReg = struct {
	mu sync.Mutex
	m  map[string]KernelFunc
}{m: map[string]KernelFunc{}}

// RegisterKernel makes a compiled kernel available to EngineCodegen for
// every unit with the given fingerprint.  Its one caller is the init of
// the generated corpus (internal/codegen/gen), so the registry is
// complete before any program runs; an engine plan reads it once, at its
// first EngineCodegen execution (bindKernels).  The lock keeps a reader
// safe all the same.
func RegisterKernel(fingerprint string, fn KernelFunc) {
	if fn == nil {
		return
	}
	kernelReg.mu.Lock()
	kernelReg.m[fingerprint] = fn
	kernelReg.mu.Unlock()
}

// KernelFor returns the registered kernel for a fingerprint, or nil.
func KernelFor(fingerprint string) KernelFunc {
	kernelReg.mu.Lock()
	fn := kernelReg.m[fingerprint]
	kernelReg.mu.Unlock()
	return fn
}

// RegisteredKernels reports how many kernels the registry holds.
func RegisteredKernels() int {
	kernelReg.mu.Lock()
	n := len(kernelReg.m)
	kernelReg.mu.Unlock()
	return n
}
