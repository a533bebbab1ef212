package main

import (
	"fmt"

	"dhpf"
	"dhpf/internal/iset"
	"dhpf/internal/mpsim"
	"dhpf/internal/nas"
	"dhpf/internal/parser"
	"dhpf/internal/passes"
	"dhpf/internal/spmd"
)

// coldProgram is one member of the compile-cold round.
type coldProgram struct {
	name string
	base string
	// hand runs the hand-written code of the same problem, the
	// reference for the compiled program's execution at compile size
	// (the serial interpreter needs seconds per program at 32³; the
	// hand codes are themselves tested against it).  nil: compile only.
	hand func() (*mpsim.Result, []float64, error)

	report   string // Report() of every edit: the edited constant is not part of it
	outBytes int    // Report() + all node programs of an edited source
	time     float64
	handTime float64
	msgs     int64
	bytes    int64
	// last keeps the newest compiled program alive, as a caller about
	// to run it would: live_heap_mb is then what compiled programs
	// retain, not the runtime's baseline.
	last *dhpf.Program
}

// coldRound is the four-program round: SP and BT at the paper's
// benchmark shapes, LU for the 2-D wavefront, and the modular SP whose
// seven procedures give interprocedural CP selection real work.
//
// spmod32 is compiled but never executed: at this commit its compiled
// form is verifier-clean and deadlocks on the interpreter and the
// closure engine alike (ROADMAP's correctness item), so it has no
// execution reference and no share in the virtual metrics.
func coldRound() []*coldProgram {
	return []*coldProgram{
		{name: "sp32", base: nas.SPSource(32, 2, 2, 2), hand: handMultipart("sp", 32, 2)},
		{name: "bt24", base: nas.BTSource(24, 2, 2, 2), hand: handMultipart("bt", 24, 2)},
		{name: "lu32", base: nas.LUSource(32, 2, 2, 2), hand: handLU(32, 2)},
		{name: "spmod32", base: nas.SPModSource(32, 2, 2, 2)},
	}
}

// compileInstance is a set-up compile-cold workload.
type compileInstance struct {
	round []*coldProgram
	opt   dhpf.Options
	// edits gives every compile of the run its own constant, so no
	// source text is ever compiled twice.
	edits *editStream
}

func setupCompile(e env) (instance, error) {
	c := &compileInstance{round: coldRound(), opt: dhpf.DefaultOptions(), edits: newEditStream(e.seed, 0, 1)}
	for _, p := range c.round {
		if err := c.reference(p); err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		e.clock.lap()
	}
	return c, nil
}

// reference compiles the unedited program, executes it at its compile
// size against the hand-written code, and fixes what every edited
// compile must reproduce.
func (c *compileInstance) reference(p *coldProgram) error {
	prog, err := spmd.CompileSource(p.base, nil, c.opt)
	if err != nil {
		return err
	}
	p.report = prog.Report()
	src, err := edit(p.base, c.edits.next())
	if err != nil {
		return err
	}
	edited, err := spmd.CompileSource(src, nil, c.opt)
	if err != nil {
		return err
	}
	p.outBytes = len(edited.Report())
	for r := 0; r < edited.Grid.Size(); r++ {
		p.outBytes += len(edited.EmitNodeProgram(r))
	}
	if p.hand == nil {
		return nil
	}
	res, err := prog.Execute(machine())
	if err != nil {
		return err
	}
	handRes, handU, err := p.hand()
	if err != nil {
		return fmt.Errorf("hand-coded run: %w", err)
	}
	u, _, _, err := res.Global("u")
	if err != nil {
		return err
	}
	if e := maxRelErr(u, handU); e > tolerance {
		return fmt.Errorf("compiled u differs from the hand-coded run: max rel err %g", e)
	}
	if err := checkPredict(prog, res); err != nil {
		return err
	}
	p.time, p.handTime = res.Machine.Time, handRes.Time
	p.msgs, p.bytes = res.Machine.TotalMessages(), res.Machine.TotalBytes()
	return nil
}

// check is the per-compile invariant: right rank count, the reference
// report, and the reference amount of generated text.
func (p *coldProgram) check(gotRanks int, report string, outBytes int) error {
	switch {
	case gotRanks != ranks:
		return fmt.Errorf("%s: compiled for %d ranks, want %d", p.name, gotRanks, ranks)
	case report != p.report:
		return fmt.Errorf("%s: report differs from the reference compile", p.name)
	case outBytes != p.outBytes:
		return fmt.Errorf("%s: %d bytes of generated text, want %d", p.name, outBytes, p.outBytes)
	}
	return nil
}

func (c *compileInstance) run(first, n int, tr *tracer, rec *recorder) {
	timeOps(first, n, tr, rec, func(_ int, th *thread) error {
		for _, p := range c.round {
			src, err := edit(p.base, c.edits.next())
			if err != nil {
				return err
			}
			if th == nil {
				err = c.compile(p, src)
			} else {
				err = c.compileTraced(p, src, th)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// compile is the untraced op body: what a library caller does.
func (c *compileInstance) compile(p *coldProgram, src string) error {
	prog, err := dhpf.Compile(src, nil, c.opt)
	if err != nil {
		return fmt.Errorf("%s: %w", p.name, err)
	}
	p.last = prog
	report := prog.Report()
	out := len(report)
	for r := 0; r < prog.Ranks(); r++ {
		out += len(prog.NodeProgram(r))
	}
	return p.check(prog.Ranks(), report, out)
}

// compileTraced is the same compile driven pass by pass, with a span
// around each pass, each invariant check, the report and the emit.
func (c *compileInstance) compileTraced(p *coldProgram, src string, th *thread) error {
	pipeline, err := passes.BuildPipeline(c.opt)
	if err != nil {
		return err
	}
	cc := &passes.CompileContext{Source: src, Opt: c.opt}
	for _, pass := range pipeline {
		th.do("passes", pass.Name, func() { err = pass.Run(cc) })
		if err != nil {
			return fmt.Errorf("%s: pass %s: %w", p.name, pass.Name, err)
		}
		if pass.Check == nil {
			continue
		}
		th.do("passes", "check", func() { err = pass.Check(cc) })
		if err != nil {
			return fmt.Errorf("%s: pass %s: invariant: %w", p.name, pass.Name, err)
		}
	}
	prog := &spmd.Program{IR: cc.IR, Ctx: cc.Ctx, Sel: cc.Sel, Comm: cc.Comm,
		Reductions: cc.Reductions, Grid: cc.Grid, Opt: cc.Opt}
	var report string
	th.do("spmd", "report", func() { report = prog.Report() })
	out := len(report)
	th.do("spmd", "emit", func() {
		for r := 0; r < prog.Grid.Size(); r++ {
			out += len(prog.EmitNodeProgram(r))
		}
	})
	return p.check(prog.Grid.Size(), report, out)
}

// coldStarts: a restart loses nothing a cold compile uses — no cache is
// on this path — so the first op after one is just an op.
func (c *compileInstance) coldStarts(n int) ([]float64, error) {
	var rec recorder
	c.run(0, n, nil, &rec)
	return rec.durs, rec.firstErr
}

func (c *compileInstance) outputBytes() float64 {
	total := 0
	for _, p := range c.round {
		total += p.outBytes
	}
	return float64(total)
}

// facts are those of the generated code: the executable members' runs
// at compile size, measured in set-up.
func (c *compileInstance) facts() facts {
	var f facts
	var ratios []float64
	for _, p := range c.round {
		if p.hand == nil {
			continue
		}
		f.virtualMS += p.time * 1e3
		f.msgs += p.msgs
		f.bytes += p.bytes
		ratios = append(ratios, p.time/p.handTime)
	}
	f.vsHand = geomean(ratios)
	return f
}

func (c *compileInstance) close() error { return nil }

var compileCold = workload{
	name:      "compile-cold",
	why:       "cold Compile+Report+NodeProgram of SP32, BT24, LU32, SPMod32, each source edited so none repeats: parser, the 15 passes, iset, verify, analysis and emit do all the work, no cache can help",
	opsPer10s: 100,
	setup:     setupCompile,
	defs:      compileLayerDefs(),
	layers:    compileLayers,
}

func compileLayerDefs() []layerDef {
	var defs []layerDef
	for _, name := range passes.PassNames() {
		defs = append(defs, layerDef{"passes." + name + "_ms", "ms", "lower"})
	}
	return append(defs,
		layerDef{"passes.check_ms", "ms", "lower"},
		layerDef{"passes.fingerprint_us", "us", "lower"},
		layerDef{"parser.kb_per_s", "KiB/s", "higher"},
		layerDef{"spmd.report_ms", "ms", "lower"},
		layerDef{"spmd.emit_ms", "ms", "lower"},
		layerDef{"trace.compile_coverage", "ratio", "higher"},
		layerDef{"comm.events", "count", "lower"},
		layerDef{"comm.eliminated", "count", "higher"},
		layerDef{"verify.rerun_ms", "ms", "lower"},
		layerDef{"analysis.rerun_ms", "ms", "lower"},
		layerDef{"analysis.predict_ms", "ms", "lower"},
		layerDef{"iset.subtract_ns", "ns", "lower"},
		layerDef{"iset.intersect_ns", "ns", "lower"},
		layerDef{"iset.contains_ns", "ns", "lower"},
	)
}

// compileLayers reads the per-pass spans (each metric is the median over
// ops of the round's total in that pass) and probes the layers below
// the passes directly.
func compileLayers(_ env, inst instance, tr *tracer) (map[string]float64, error) {
	c := inst.(*compileInstance)
	out := map[string]float64{}
	for _, name := range passes.PassNames() {
		out["passes."+name+"_ms"] = median(tr.perOp("passes." + name))
	}
	out["passes.check_ms"] = median(tr.perOp("passes.check"))
	out["spmd.report_ms"] = median(tr.perOp("spmd.report"))
	out["spmd.emit_ms"] = median(tr.perOp("spmd.emit"))
	out["trace.compile_coverage"] = rootCoverage(tr.spans)

	var progs []*spmd.Program
	var srcBytes int
	for _, p := range c.round {
		prog, err := spmd.CompileSource(p.base, nil, c.opt)
		if err != nil {
			return nil, err
		}
		progs = append(progs, prog)
		srcBytes += len(p.base)
		for _, an := range prog.Comm {
			out["comm.events"] += float64(len(an.Events))
			for _, ev := range an.Events {
				if ev.Eliminated {
					out["comm.eliminated"]++
				}
			}
		}
	}
	eachProgram := func(f func(*spmd.Program) error) func() error {
		return func() error {
			for _, prog := range progs {
				if err := f(prog); err != nil {
					return err
				}
			}
			return nil
		}
	}
	var err error
	if out["verify.rerun_ms"], err = sampleMS(5, eachProgram(func(p *spmd.Program) error {
		_, err := p.Verify()
		return err
	})); err != nil {
		return nil, err
	}
	if out["analysis.rerun_ms"], err = sampleMS(5, eachProgram(func(p *spmd.Program) error {
		_, err := p.Analyze()
		return err
	})); err != nil {
		return nil, err
	}
	if out["analysis.predict_ms"], err = sampleMS(5, eachProgram(func(p *spmd.Program) error {
		_, err := p.PredictCost()
		return err
	})); err != nil {
		return nil, err
	}
	parse, err := sampleMS(20, func() error {
		for _, p := range c.round {
			if _, err := parser.Parse(p.base); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["parser.kb_per_s"] = float64(srcBytes) / 1024 / (parse / 1e3)
	fp, err := sampleMS(50, func() error {
		for _, p := range c.round {
			dhpf.Fingerprint(p.base, nil, c.opt)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out["passes.fingerprint_us"] = fp * 1e3

	// Stencil-shaped 64³ boxes: a domain, its interior, a shifted halo.
	domain := iset.FromBox(iset.NewBox([]int{0, 0, 0}, []int{63, 63, 63}))
	interior := iset.FromBox(iset.NewBox([]int{1, 1, 1}, []int{62, 62, 62}))
	shell := domain.Subtract(interior)
	point := []int{63, 31, 0}
	out["iset.subtract_ns"] = perCallNS(func() { domain.Subtract(interior) })
	out["iset.intersect_ns"] = perCallNS(func() { shell.Intersect(interior.Translate([]int{1, 0, 0})) })
	out["iset.contains_ns"] = perCallNS(func() { shell.Contains(point) })
	return out, nil
}
