package sched_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"dhpf/internal/ir"
	"dhpf/internal/iset"
	"dhpf/internal/nas"
	"dhpf/internal/sched"
	"dhpf/internal/spmd"
)

// recorder is a sched.Ops that writes down what the walker asks of it,
// in order: plan exchanges with their tag blocks, wavefront iteration
// windows with the active strip, reductions, and how many statement
// instances ran in between.
type recorder struct {
	w       *sched.Walker
	sb      strings.Builder
	assigns int
	depth   int
}

func (r *recorder) logf(format string, args ...any) {
	if r.assigns > 0 {
		fmt.Fprintf(&r.sb, "%sassign x%d\n", strings.Repeat("  ", r.depth), r.assigns)
		r.assigns = 0
	}
	fmt.Fprintf(&r.sb, "%s%s\n", strings.Repeat("  ", r.depth), fmt.Sprintf(format, args...))
}

func (r *recorder) Enter(f *sched.Frame) {
	r.logf("enter %s", f.Proc.Name)
	r.depth++
}

func (r *recorder) Leave() {
	r.logf("leave")
	r.depth--
}

func (r *recorder) Actual(string, ir.Expr) {}
func (r *recorder) Assign(*ir.Assign)      { r.assigns++ }

func (r *recorder) Scalar(e ir.Expr) float64 {
	switch x := e.(type) {
	case ir.FloatConst:
		return x.Val
	case ir.IndexRef:
		v, _ := r.w.Lookup(x.Name)
		return float64(v)
	case ir.ParamRef:
		v, _ := r.w.Lookup(x.Name)
		return float64(v)
	}
	return 0
}

// Handled records the window of every wavefront carrier with the strip
// it runs under, and always lets the walker iterate (the strip-clamped
// ranges below it show in the statement-instance counts).
func (r *recorder) Handled(f *sched.Frame, l *ir.Loop, depth int) bool {
	if len(f.Loop(l).Pipe.Events) > 0 {
		strip := ""
		if s := r.w.Strip; s != nil {
			strip = fmt.Sprintf(" strip %s[%d:%d]", s.Var, s.Lo, s.Hi)
		}
		lo, hi := r.w.Range(l)
		r.logf("iterate %s %d..%d depth %d%s", l.Var, lo, hi, depth, strip)
	}
	return false
}

func (r *recorder) ReduceInit(reds []sched.Reduction) []float64 {
	for _, red := range reds {
		r.logf("reduce-init %s", red.Var)
	}
	return nil
}

func (r *recorder) ReduceCombine(reds []sched.Reduction, _ []float64) {
	for _, red := range reds {
		r.logf("reduce %c %s", red.Op, red.Var)
	}
}

func (r *recorder) side(what string, plan []sched.Transfer, base int, mine func(sched.Transfer) (bool, int)) {
	var parts []string
	for i, tr := range plan {
		if ok, peer := mine(tr); ok {
			parts = append(parts, fmt.Sprintf("tag %d %s%v rank %d", base+i, tr.Array, setText(tr.Boxes), peer))
		}
	}
	r.logf("%s block %d: %s", what, base, strings.Join(parts, "; "))
}

// setText renders a transfer's boxes as iset.Set.String renders the set
// they were planned as.
func setText(boxes []iset.Box) string {
	if len(boxes) == 0 {
		return "{}"
	}
	parts := make([]string, len(boxes))
	for i, b := range boxes {
		parts[i] = b.String()
	}
	return strings.Join(parts, " u ")
}

func (r *recorder) Send(plan []sched.Transfer, base int) {
	r.side("send", plan, base, func(tr sched.Transfer) (bool, int) { return tr.From == r.w.Me, tr.To })
}

func (r *recorder) Recv(plan []sched.Transfer, base int) {
	r.side("recv", plan, base, func(tr sched.Transfer) (bool, int) { return tr.To == r.w.Me, tr.From })
}

func (r *recorder) Drain() { r.logf("drain") }

// TestWalkerOpOrder pins the order in which the walker drives its ops —
// fire (send, recv, drain), wavefront chunks (recv, iterate window,
// send) with their strip windows and tag blocks, reductions — on the
// three wavefront shapes: strip-mined (ysolve: j carries, i strips),
// block-serialized without a strip loop (a 1-D recurrence) and nested
// inside an enclosing chunk (LU's 2-D diagonal wavefront), each at grain
// 1 and 8.  Rank 1 is recorded: in all three it both receives from a
// predecessor and sends to a successor.
func TestWalkerOpOrder(t *testing.T) {
	ysolve, err := os.ReadFile("../../testdata/ysolve.hpf")
	if err != nil {
		t.Fatal(err)
	}
	programs := []struct{ name, src string }{
		{"ysolve", string(ysolve)},
		{"lu16", nas.LUSource(16, 1, 2, 2)},
		{"recur1d", `
program recur
param N = 16
!hpf$ processors procs(4)
!hpf$ distribute a(BLOCK) onto procs
subroutine main()
  real a(0:N-1)
  real s
  a(0) = 1.0
  do i = 1, N-1
    a(i) = a(i-1) + 1.0
  enddo
  s = 0.0
  do i = 0, N-1
    s = s + a(i)
  enddo
end
`},
	}
	for _, p := range programs {
		for _, grain := range []int{1, 8} {
			opt := spmd.DefaultOptions()
			opt.PipelineGrain = grain
			prog, err := spmd.CompileSource(p.src, nil, opt)
			if err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			s := prog.Schedule()
			if err := s.Check(); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			r := &recorder{}
			r.w = sched.NewWalker(s, 1, r)
			r.w.Run()
			golden(t, fmt.Sprintf("%s.g%d.walk", p.name, grain), r.sb.String())
		}
	}
}
