package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"dhpf"
	"dhpf/internal/codegen"
	"dhpf/internal/mpsim"
	"dhpf/internal/nas"
	"dhpf/internal/passes"
	"dhpf/internal/shm"
	"dhpf/internal/spmd"
)

// ranks is the simulated machine size of every executed program: the
// corpus grid 2×2.  Four ranks share this box's two cores, so only
// virtual time says anything about parallel performance.
const ranks = 4

func machine() mpsim.Config { return mpsim.SP2Config(ranks) }

// memberSpec is one program of an exec workload's round.
type memberSpec struct {
	name         string // metric stem, e.g. "sp16"
	layer, what  string // span name is layer.what
	src          string
	opt          spmd.Options
	engine       spmd.Engine
	hand         func() (*mpsim.Result, []float64, error) // hand-coded run: machine result and gathered u
	wantNative   bool                                     // an op whose kernels did not run natively fails
	countTraffic bool                                     // message-passing member: counts towards comm_msgs/comm_bytes
}

// member is a set-up memberSpec: the live program plus the references
// every op is checked against.
type member struct {
	memberSpec
	prog      *spmd.Program
	arrays    []string
	timeBits  uint64
	time      float64
	handTime  float64
	msgs      int64
	bytes     int64
	pulls     int64
	pulled    int64
	barriers  int64
	idleShare float64
	outBytes  int
	last      *spmd.ExecResult
}

func handMultipart(bench string, n, steps int) func() (*mpsim.Result, []float64, error) {
	return func() (*mpsim.Result, []float64, error) {
		run, err := nas.RunMultipart(bench, n, steps, ranks, machine())
		if err != nil {
			return nil, nil, err
		}
		return run.Machine, run.U, nil
	}
}

func handLU(n, steps int) func() (*mpsim.Result, []float64, error) {
	return func() (*mpsim.Result, []float64, error) {
		run, err := nas.RunLU2D(n, steps, 2, 2, machine())
		if err != nil {
			return nil, nil, err
		}
		return run.Machine, run.U, nil
	}
}

// corpusEntry returns the named program of the checked-in kernel corpus.
// Native kernels are registered by unit fingerprint, so exec-* must run
// exactly these sources and options for the gen package to serve them.
func corpusEntry(name string) (codegen.CorpusEntry, error) {
	for _, e := range codegen.Corpus() {
		if e.Name == name {
			return e, nil
		}
	}
	return codegen.CorpusEntry{}, fmt.Errorf("codegen corpus has no entry %q", name)
}

// corpusMembers is the sp16-then-bt12 round under one engine.
func corpusMembers(engine spmd.Engine, tier string) ([]memberSpec, error) {
	var out []memberSpec
	for _, m := range []struct {
		name string
		hand func() (*mpsim.Result, []float64, error)
	}{{"sp16", handMultipart("sp", 16, 1)}, {"bt12", handMultipart("bt", 12, 1)}} {
		e, err := corpusEntry(m.name)
		if err != nil {
			return nil, err
		}
		out = append(out, memberSpec{name: m.name, layer: "spmd", what: tier + "." + m.name,
			src: e.Source, opt: e.Opt, engine: engine, hand: m.hand,
			wantNative: engine == spmd.EngineCodegen, countTraffic: true})
	}
	return out, nil
}

// pipelineMembers is LU 16³, two steps, at strip width 1 — the finest
// pipeline the compiler emits — once per substrate.
func pipelineMembers() []memberSpec {
	src := nas.LUSource(16, 2, 2, 2)
	mp := spmd.DefaultOptions()
	mp.PipelineGrain = 1
	sh := mp
	sh.Backend = passes.BackendShm
	hand := handLU(16, 2)
	return []memberSpec{
		{name: "lu_mp", layer: "mpsim", what: "lu_mp", src: src, opt: mp, hand: hand, countTraffic: true},
		{name: "lu_shm", layer: "shm", what: "lu_shm", src: src, opt: sh, hand: hand},
	}
}

// prepare compiles the member and checks it against every reference
// before it may be timed.
func prepare(e env, spec memberSpec) (*member, error) {
	m := &member{memberSpec: spec}
	fail := func(err error) (*member, error) { return nil, fmt.Errorf("%s: %w", spec.name, err) }
	var err error
	if m.prog, err = spmd.CompileSource(spec.src, nil, spec.opt); err != nil {
		return fail(err)
	}
	e.clock.lap()
	ser, err := serialRun(spec.src, nil)
	if err != nil {
		return fail(err)
	}
	e.clock.lap()
	// Only distributed arrays have a global value to compare: the
	// privatizable (NEW) work arrays hold each rank's own scratch.
	for _, name := range ser.Names() {
		if m.prog.Ctx.Bind.LayoutOf(name) != nil {
			m.arrays = append(m.arrays, name)
		}
	}
	byEngine := map[spmd.Engine]*spmd.ExecResult{}
	for _, eng := range []spmd.Engine{spmd.EngineInterp, spmd.EngineCompiled, spmd.EngineCodegen} {
		if byEngine[eng], err = m.prog.ExecuteEngine(machine(), eng); err != nil {
			return fail(fmt.Errorf("engine %s: %w", eng, err))
		}
		e.clock.lap()
	}
	ref := byEngine[spec.engine]
	if err := checkSerial(ref, ser, m.arrays); err != nil {
		return fail(err)
	}
	for _, eng := range []spmd.Engine{spmd.EngineInterp, spmd.EngineCodegen} {
		if err := checkSameBits(eng.String()+" vs closure", byEngine[eng], byEngine[spmd.EngineCompiled], m.arrays); err != nil {
			return fail(err)
		}
	}
	if err := checkPredict(m.prog, ref); err != nil {
		return fail(err)
	}
	handRes, handU, err := spec.hand()
	if err != nil {
		return fail(fmt.Errorf("hand-coded run: %w", err))
	}
	wantU, _, _, err := ser.Array("u")
	if err != nil {
		return fail(err)
	}
	if e := maxRelErr(handU, wantU); e > tolerance {
		return fail(fmt.Errorf("hand-coded u differs from the serial run: max rel err %g", e))
	}
	m.handTime = handRes.Time
	m.time = ref.Machine.Time
	m.timeBits = math.Float64bits(m.time)
	m.msgs, m.bytes = ref.Machine.TotalMessages(), ref.Machine.TotalBytes()
	if ref.Shm != nil {
		m.pulls, m.pulled, m.barriers = ref.Shm.TotalPulls(), ref.Shm.TotalPulledBytes(), ref.Shm.Barriers
	}
	var idle, busy float64
	for r := range ref.Machine.RankTime {
		idle += ref.Machine.RankIdle[r]
		busy += ref.Machine.RankTime[r]
	}
	m.idleShare = idle / busy
	for _, name := range m.arrays {
		data, _, _, err := ref.Global(name)
		if err != nil {
			return fail(err)
		}
		m.outBytes += 8 * len(data)
	}
	m.last = ref
	return m, nil
}

// execute runs the member once and checks the cheap exact invariants.
func (m *member) execute(th *thread) error {
	before := spmd.KernelInvocations()
	var res *spmd.ExecResult
	var err error
	th.do(m.layer, m.what, func() { res, err = m.prog.ExecuteEngine(machine(), m.engine) })
	if err != nil {
		return fmt.Errorf("%s: %w", m.name, err)
	}
	if math.Float64bits(res.Machine.Time) != m.timeBits {
		return fmt.Errorf("%s: virtual time %v, want %v", m.name, res.Machine.Time, m.time)
	}
	if res.Machine.TotalMessages() != m.msgs || res.Machine.TotalBytes() != m.bytes {
		return fmt.Errorf("%s: traffic %d msgs %d B, want %d msgs %d B", m.name,
			res.Machine.TotalMessages(), res.Machine.TotalBytes(), m.msgs, m.bytes)
	}
	if res.Shm != nil && (res.Shm.TotalPulls() != m.pulls || res.Shm.TotalPulledBytes() != m.pulled) {
		return fmt.Errorf("%s: pulls differ from the reference run", m.name)
	}
	if m.wantNative && spmd.KernelInvocations() == before {
		return fmt.Errorf("%s: no kernel ran natively (silent fall-back to the closure engine)", m.name)
	}
	m.last = res
	return nil
}

// execInstance is a set-up exec-* workload.
type execInstance struct {
	members     []*member
	kernelCalls int64
	ops         int64
}

func setupExec(e env, specs []memberSpec) (*execInstance, error) {
	x := &execInstance{}
	for _, spec := range specs {
		m, err := prepare(e, spec)
		if err != nil {
			return nil, err
		}
		x.members = append(x.members, m)
	}
	return x, nil
}

func (x *execInstance) run(first, n int, tr *tracer, rec *recorder) {
	before := spmd.KernelInvocations()
	timeOps(first, n, tr, rec, func(_ int, th *thread) error {
		for _, m := range x.members {
			if err := m.execute(th); err != nil {
				return err
			}
		}
		return nil
	})
	x.kernelCalls += spmd.KernelInvocations() - before
	x.ops += int64(n)
}

// coldStarts times what a fresh process repeats before its first result:
// compiling the round's programs and executing each for the first time
// (plan build, kernel extraction, transfer-plan misses).
func (x *execInstance) coldStarts(n int) ([]float64, error) {
	scaled, _, errs := series(n, func(int) error {
		for _, m := range x.members {
			p, err := spmd.CompileSource(m.src, nil, m.opt)
			if err != nil {
				return err
			}
			if _, err := p.ExecuteEngine(machine(), m.engine); err != nil {
				return err
			}
		}
		return nil
	})
	return scaled, errors.Join(errs...)
}

func (x *execInstance) outputBytes() float64 {
	total := 0
	for _, m := range x.members {
		total += m.outBytes
	}
	return float64(total)
}

func (x *execInstance) facts() facts {
	var f facts
	var ratios []float64
	for _, m := range x.members {
		f.virtualMS += m.time * 1e3
		if m.countTraffic {
			f.msgs += m.msgs
			f.bytes += m.bytes
		}
		ratios = append(ratios, m.time/m.handTime)
	}
	f.vsHand = geomean(ratios)
	return f
}

func (x *execInstance) close() error { return nil }

// memberMS is the median per-op time of each member's span.
func (x *execInstance) memberMS(tr *tracer) map[string]float64 {
	out := map[string]float64{}
	for _, m := range x.members {
		out[m.layer+"."+m.what+"_ms"] = median(tr.perOp(m.layer + "." + m.what))
	}
	return out
}

var execClosure = workload{
	name:      "exec-closure",
	why:       "closure engine on corpus sp16+bt12 (mp): loop-body evaluation dominates; the default engine behind dhpfc -run and /v1/run",
	opsPer10s: 160,
	setup: func(e env) (instance, error) {
		specs, err := corpusMembers(spmd.EngineCompiled, "closure")
		if err != nil {
			return nil, err
		}
		return setupExec(e, specs)
	},
	defs: []layerDef{
		{"spmd.closure.sp16_ms", "ms", "lower"},
		{"spmd.closure.bt12_ms", "ms", "lower"},
		{"spmd.interp.sp16_ms", "ms", "lower"},
		{"spmd.first_exec_extra_ms", "ms", "lower"},
		{"spmd.kernel_extract_ms", "ms", "lower"},
		{"spmd.gather_ms", "ms", "lower"},
		{"nas.hand_sp_ms", "sim_ms", "lower"},
		{"nas.hand_bt_ms", "sim_ms", "lower"},
		{"tune.sp12_ms", "ms", "lower"},
	},
	layers: func(_ env, inst instance, tr *tracer) (map[string]float64, error) {
		x := inst.(*execInstance)
		out := x.memberMS(tr)
		sp := x.members[0]
		var err error
		// The interpreter is the oracle, not a product tier: a few
		// samples place it, nothing gates on it.
		if out["spmd.interp.sp16_ms"], err = sampleMS(5, func() error {
			_, err := sp.prog.ExecuteEngine(machine(), spmd.EngineInterp)
			return err
		}); err != nil {
			return nil, err
		}
		var extract []float64
		first, err := sampleMS(5, func() error {
			p, err := spmd.CompileSource(sp.src, nil, sp.opt)
			if err != nil {
				return err
			}
			t0 := time.Now()
			p.KernelUnits()
			extract = append(extract, float64(time.Since(t0).Nanoseconds())/1e6)
			_, err = p.ExecuteEngine(machine(), spmd.EngineCompiled)
			return err
		})
		if err != nil {
			return nil, err
		}
		compile, err := sampleMS(5, func() error {
			_, err := spmd.CompileSource(sp.src, nil, sp.opt)
			return err
		})
		if err != nil {
			return nil, err
		}
		// First execute of a fresh program minus a steady one: engine
		// plan build, kernel extraction and the transfer-plan misses.
		out["spmd.first_exec_extra_ms"] = first - compile - out["spmd.closure.sp16_ms"]
		out["spmd.kernel_extract_ms"] = median(extract)
		if out["spmd.gather_ms"], err = sampleMS(10, func() error {
			for _, name := range sp.arrays {
				if _, _, _, err := sp.last.Global(name); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return nil, err
		}
		out["nas.hand_sp_ms"] = x.members[0].handTime * 1e3
		out["nas.hand_bt_ms"] = x.members[1].handTime * 1e3
		// The tuner is compile + closure execution underneath; CI's
		// smoke configuration, one sample, on a tuner with no memo.
		if out["tune.sp12_ms"], err = sampleMS(1, func() error {
			res, err := dhpf.NewTuner().Tune(context.Background(), nas.SPSource(12, 1, 1, ranks), dhpf.TuneOptions{
				Bench: "sp", N: 12, Steps: 1, Procs: ranks, Grains: []int{8}, TopK: 2, Workers: 2})
			if err == nil && res.Winner == nil {
				err = fmt.Errorf("tuner returned no winner")
			}
			return err
		}); err != nil {
			return nil, err
		}
		return out, nil
	},
}

var execNative = workload{
	name:      "exec-native",
	why:       "codegen engine with the checked-in kernels on the same programs: plan walk, precheck, transfer planning, pack/unpack and mpsim are what is left",
	opsPer10s: 400,
	setup: func(e env) (instance, error) {
		specs, err := corpusMembers(spmd.EngineCodegen, "codegen")
		if err != nil {
			return nil, err
		}
		return setupExec(e, specs)
	},
	defs: []layerDef{
		{"spmd.codegen.sp16_ms", "ms", "lower"},
		{"spmd.codegen.bt12_ms", "ms", "lower"},
		{"spmd.kernel_units", "count", "higher"},
		{"spmd.kernels_registered", "count", "higher"},
		{"spmd.kernel_calls_per_op", "count", "higher"},
	},
	layers: func(_ env, inst instance, tr *tracer) (map[string]float64, error) {
		x := inst.(*execInstance)
		out := x.memberMS(tr)
		units, registered := 0, 0
		for _, m := range x.members {
			for _, u := range m.prog.KernelUnits() {
				units++
				if spmd.KernelFor(u.Fingerprint()) != nil {
					registered++
				}
			}
		}
		out["spmd.kernel_units"] = float64(units)
		out["spmd.kernels_registered"] = float64(registered)
		out["spmd.kernel_calls_per_op"] = float64(x.kernelCalls) / float64(x.ops)
		return out, nil
	},
}

var execPipeline = workload{
	name:      "exec-pipeline",
	why:       "LU 16^3 at pipeline grain 1 on mp then shm: 912 tiny transfers and few flops, so mailbox, rendezvous and transfer planning dominate, not kernels",
	opsPer10s: 280,
	setup: func(e env) (instance, error) {
		x, err := setupExec(e, pipelineMembers())
		if err != nil {
			return nil, err
		}
		// Same program, two substrates: the numerics must not know.
		mp, sh := x.members[0], x.members[1]
		if err := checkSameArrays("shm vs mp", sh.last, mp.last, mp.arrays); err != nil {
			return nil, err
		}
		return x, nil
	},
	defs: []layerDef{
		{"mpsim.lu_mp_ms", "ms", "lower"},
		{"shm.lu_shm_ms", "ms", "lower"},
		{"mpsim.roundtrip_us", "us", "lower"},
		{"mpsim.replay_ms", "ms", "lower"},
		{"mpsim.msgs_per_op", "count", "lower"},
		{"mpsim.bytes_per_op", "B", "lower"},
		{"mpsim.idle_share", "ratio", "lower"},
		{"shm.rendezvous_us", "us", "lower"},
		{"shm.pulls_per_op", "count", "lower"},
		{"shm.pulled_bytes_per_op", "B", "lower"},
		{"shm.barriers_per_op", "count", "lower"},
		{"nas.hand_lu_ms", "sim_ms", "lower"},
	},
	layers: func(_ env, inst instance, tr *tracer) (map[string]float64, error) {
		x := inst.(*execInstance)
		out := x.memberMS(tr)
		mp, sh := x.members[0], x.members[1]
		out["mpsim.msgs_per_op"] = float64(mp.msgs)
		out["mpsim.bytes_per_op"] = float64(mp.bytes)
		out["mpsim.idle_share"] = mp.idleShare
		out["shm.pulls_per_op"] = float64(sh.pulls)
		out["shm.pulled_bytes_per_op"] = float64(sh.pulled)
		out["shm.barriers_per_op"] = float64(sh.barriers)
		out["nas.hand_lu_ms"] = mp.handTime * 1e3
		var err error
		if out["mpsim.roundtrip_us"], err = sampleMS(20, func() error { pingPong(roundTrips); return nil }); err != nil {
			return nil, err
		}
		out["mpsim.roundtrip_us"] *= 1e3 / roundTrips
		if out["shm.rendezvous_us"], err = sampleMS(20, func() error { rendezvous(roundTrips); return nil }); err != nil {
			return nil, err
		}
		out["shm.rendezvous_us"] *= 1e3 / roundTrips
		script, err := recordTraffic(mp)
		if err != nil {
			return nil, err
		}
		// The op's own messages, same sizes and order, through the bare
		// mailbox: the machine's share of the op.
		if out["mpsim.replay_ms"], err = sampleMS(10, func() error { return replay(script, mp.msgs) }); err != nil {
			return nil, err
		}
		return out, nil
	},
}

// roundTrips is how many round trips one ping-pong or rendezvous sample
// makes.
const roundTrips = 100

// pingPong bounces 128 doubles between two ranks.
func pingPong(n int) {
	mpsim.Run(mpsim.SP2Config(2), func(r *mpsim.Rank) {
		buf := make([]float64, 128)
		for k := 0; k < n; k++ {
			if r.ID == 0 {
				r.Send(1, k, buf)
				r.Recycle(r.Recv(1, n+k))
			} else {
				r.Recycle(r.Recv(0, k))
				r.Send(0, n+k, buf)
			}
		}
	})
}

// rendezvous is the shared-memory counterpart: publish, await, ack and
// drain 128 doubles back and forth between two threads.
func rendezvous(n int) {
	shm.Run(shm.FromMachine(mpsim.SP2Config(2), nil), func(t *shm.Thread) {
		buf := make([]float64, 128)
		peer := 1 - t.ID
		for k := 0; k < n; k++ {
			if t.ID == 0 {
				t.Publish(peer, k, 8*len(buf), buf)
				t.Drain()
				t.Await(peer, n+k)
				t.Ack(peer, 8*len(buf))
			} else {
				t.Await(peer, k)
				t.Ack(peer, 8*len(buf))
				t.Publish(peer, n+k, 8*len(buf), buf)
				t.Drain()
			}
		}
	})
}

// trafficOp is one send or receive of a recorded run.
type trafficOp struct {
	send      bool
	peer, tag int
	doubles   int
}

// recordTraffic executes the member with event capture on and returns
// each rank's sends and receives in program order.
func recordTraffic(m *member) ([][]trafficOp, error) {
	cfg := machine()
	cfg.Trace = true
	res, err := m.prog.ExecuteEngine(cfg, m.engine)
	if err != nil {
		return nil, err
	}
	script := make([][]trafficOp, ranks)
	for _, ev := range res.Machine.Events {
		switch ev.Kind {
		case mpsim.EvSend:
			script[ev.Rank] = append(script[ev.Rank], trafficOp{send: true, peer: ev.Peer, tag: ev.Tag, doubles: ev.Bytes / 8})
		case mpsim.EvRecvCopy:
			script[ev.Rank] = append(script[ev.Rank], trafficOp{peer: ev.Peer, tag: ev.Tag, doubles: ev.Bytes / 8})
		}
	}
	return script, nil
}

// replay pushes a recorded script through mpsim with no program around
// it and checks the machine counted the same messages.
func replay(script [][]trafficOp, wantMsgs int64) error {
	res := mpsim.Run(machine(), func(r *mpsim.Rank) {
		var buf []float64
		for _, op := range script[r.ID] {
			if !op.send {
				r.Recycle(r.Recv(op.peer, op.tag))
				continue
			}
			if len(buf) < op.doubles {
				buf = make([]float64, op.doubles)
			}
			r.Send(op.peer, op.tag, buf[:op.doubles])
		}
	})
	if res.TotalMessages() != wantMsgs {
		return fmt.Errorf("replay sent %d messages, want %d", res.TotalMessages(), wantMsgs)
	}
	return nil
}
