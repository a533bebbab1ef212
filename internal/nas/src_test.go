package nas

import (
	"testing"

	"dhpf/internal/mpsim"
	"dhpf/internal/parser"
	"dhpf/internal/spmd"
)

func smallMachine(p int) mpsim.Config {
	cfg := mpsim.SP2Config(p)
	return cfg
}

func TestSPSourceParses(t *testing.T) {
	src := SPSource(16, 2, 2, 2)
	if _, err := parser.Parse(src); err != nil {
		t.Fatalf("SP source does not parse: %v", err)
	}
}

func TestBTSourceParses(t *testing.T) {
	src := BTSource(16, 2, 2, 2)
	if _, err := parser.Parse(src); err != nil {
		t.Fatalf("BT source does not parse: %v", err)
	}
}

// verifyCompiled compiles and runs the source on p1*p2 ranks and checks
// the named arrays against the serial reference.  Returns the run.
func verifyCompiled(t *testing.T, src string, procs int, arrays []string) *spmd.ExecResult {
	t.Helper()
	prog, err := spmd.CompileSource(src, nil, spmd.DefaultOptions())
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := prog.Execute(smallMachine(procs))
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	ref, err := spmd.RunSerial(parser.MustParse(src), nil)
	if err != nil {
		t.Fatalf("serial: %v", err)
	}
	if _, err := res.AgreesWithSerial(ref, 1e-10, arrays...); err != nil {
		t.Fatal(err)
	}
	return res
}

func TestSPCompiledMatchesSerial(t *testing.T) {
	src := SPSource(ClassS.N, 2, 2, 2)
	res := verifyCompiled(t, src, 4, []string{"u", "rhs"})
	if res.Machine.TotalMessages() == 0 {
		t.Error("SP on 4 ranks must communicate")
	}
}

func TestSPCompiledMatchesSerialRectGrid(t *testing.T) {
	src := SPSource(ClassS.N, 1, 1, 2)
	verifyCompiled(t, src, 2, []string{"u"})
}

func TestBTCompiledMatchesSerial(t *testing.T) {
	src := BTSource(ClassS.N, 1, 2, 2)
	res := verifyCompiled(t, src, 4, []string{"u", "r"})
	if res.Machine.TotalMessages() == 0 {
		t.Error("BT on 4 ranks must communicate")
	}
}

// TestBTFineGrainMatchesSerial: below grain 5 a strip of BT's wavefronts
// no longer splits the component loop m, whose window does not bound the
// rows of r the inner loop reads — there a strip republished rows the
// next one overwrote, and r came out 3e-4 to 1e-3 off serial.  The strip
// is now the outermost loop that carries no dependence (comm's
// Event.Strip), and every array equals the serial run's bit for bit on
// both backends.
func TestBTFineGrainMatchesSerial(t *testing.T) {
	src := BTSource(12, 1, 2, 2)
	ref, err := spmd.RunSerial(parser.MustParse(src), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, backend := range []string{"mp", "shm"} {
		for grain := 1; grain <= 4; grain++ {
			opt := spmd.DefaultOptions()
			opt.Backend, opt.PipelineGrain = backend, grain
			prog, err := spmd.CompileSource(src, nil, opt)
			if err != nil {
				t.Fatal(err)
			}
			res, err := prog.Execute(smallMachine(4))
			if err != nil {
				t.Fatalf("%s/g%d: %v", backend, grain, err)
			}
			if _, err := res.AgreesWithSerial(ref, 0); err != nil {
				t.Fatalf("%s/g%d: %v", backend, grain, err)
			}
		}
	}
}

func TestSPWorkIsDistributed(t *testing.T) {
	src := SPSource(ClassS.N, 1, 2, 2)
	prog, err := spmd.CompileSource(src, nil, spmd.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	res, err := prog.Execute(smallMachine(4))
	if err != nil {
		t.Fatal(err)
	}
	var tot float64
	for _, f := range res.Machine.RankFlops {
		tot += f
	}
	for r, f := range res.Machine.RankFlops {
		if f < tot/16 || f > tot/2 {
			t.Errorf("rank %d flops %g of %g: unbalanced", r, f, tot)
		}
	}
}
