package main

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"
)

// metricDef declares one end-to-end metric: BENCHMARK.json is generated
// from these, so the file and the code cannot drift.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
	// exact metrics are counts and virtual quantities: two runs of one
	// commit must report them bit-identically.
	exact bool
}

// layerDef declares one per-layer metric of the traced run.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// The end-to-end metrics, all "lower is better".  Host quantities carry
// the bounds the self-agreement runs on the reference box support (see
// README.md); virtual quantities repeat exactly and carry a bound only
// so that a deliberate change to the generated code can pass.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.05},
	{Name: "alloc_kb_per_op", Unit: "KiB", Better: "lower", Bound: 0.05},
	{Name: "live_heap_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	{Name: "restart_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "virtual_ms", Unit: "sim_ms", Better: "lower", Bound: 0.01, exact: true},
	{Name: "comm_msgs", Unit: "count", Better: "lower", Bound: 0.01, exact: true},
	{Name: "comm_bytes", Unit: "B", Better: "lower", Bound: 0.01, exact: true},
	{Name: "vs_hand", Unit: "ratio", Better: "lower", Bound: 0.01, exact: true},
	{Name: "output_kb", Unit: "KiB", Better: "lower", Bound: 0.05},
}

// Layer metrics every workload reports about its own timed loop.
var commonLayers = []layerDef{
	{"tail.op_ms_hi", "ms", "lower"},
	{"noise.block_spread", "ratio", "lower"},
	{"noise.speed_factor", "ratio", "higher"},
	{"trace.overhead_share", "ratio", "lower"},
}

// facts are the exact quantities of one op, fixed in set-up from
// independent references; every timed op is checked against them.
type facts struct {
	virtualMS float64 // virtual makespan summed over the op's members
	msgs      int64   // messages of the message-passing members
	bytes     int64   // payload bytes of the message-passing members
	vsHand    float64 // geometric mean of dHPF ÷ hand-coded virtual time
}

// instance is one set-up workload, ready to run ops.
type instance interface {
	// run executes n ops numbered from first and reports each op's
	// wall time (or failure) to rec.  With a tracer it runs the same
	// ops with the harness's spans around each layer call.
	run(first, n int, tr *tracer, rec *recorder)
	// coldStarts measures n times how long the state a restart loses
	// takes to rebuild up to the first completed op, in milliseconds.
	// Workloads that restart inside their loop return those samples.
	coldStarts(n int) ([]float64, error)
	// outputBytes is the mean size of what one op hands its caller.
	outputBytes() float64
	facts() facts
	close() error
}

// workload is one named traffic shape.
type workload struct {
	name string
	why  string
	// opsPer10s is the op count of a 10-second run, fixed in code so
	// every commit does the same work; -seconds scales it linearly.
	opsPer10s int
	setup     func(e env) (instance, error)
	// layers turns the traced loop's spans into this workload's layer
	// metrics and runs the micro-probes of the layers it exercises.
	layers func(e env, inst instance, tr *tracer) (map[string]float64, error)
	defs   []layerDef
}

// env is what one invocation fixes for every workload it runs.
type env struct {
	seed      int64
	scale     float64 // op-count multiplier: seconds ÷ 10, ÷ 20 when quick
	setupReps int     // set-ups per run; setup_s is their median
	tmp       string  // scratch directory for store journals
	// clock times the set-up in progress; set-up code closes a lap
	// after each major step (nil outside setUp).
	clock *stopwatch
}

func (e env) ops(w workload) int {
	return max(5, int(math.Round(float64(w.opsPer10s)*e.scale)))
}

// recorder collects op outcomes; safe for the serve workload's two
// client goroutines.
type recorder struct {
	mu        sync.Mutex
	durs      []float64 // reference-box milliseconds (see calib.go)
	speeds    []float64 // the factor each duration was scaled by
	attempted int
	failed    int
	firstErr  error
}

// done records one op: its time in reference-box milliseconds, the
// speed factor that scaled it, and its error if it failed.
func (r *recorder) done(ms, speed float64, err error) {
	r.mu.Lock()
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	} else {
		r.durs = append(r.durs, ms)
		r.speeds = append(r.speeds, speed)
	}
	r.mu.Unlock()
}

// fail records a failure that belongs to no single op (a missed
// expectation over a group of ops).
func (r *recorder) fail(err error) { r.done(0, 1, err) }

// timeOps is the single-client closed loop: op after op, each timed,
// with the reference kernel run in between.
func timeOps(first, n int, tr *tracer, rec *recorder, op func(i int, th *thread) error) {
	th := tr.thread()
	scaled, speeds, errs := series(n, func(j int) (err error) {
		th.setOp(first + j)
		th.do("harness", "op", func() { err = op(first+j, th) })
		return err
	})
	for j := range scaled {
		tr.setSpeed(first+j, speeds[j])
		rec.done(scaled[j], speeds[j], errs[j])
	}
}

// loopBlocks is how many blocks a timed loop is split into; the only
// forced collections of a run happen between them.
const loopBlocks = 5

// loopResult is one timed loop's raw outcome.
type loopResult struct {
	rec          recorder
	mallocs      float64 // the reference kernel's own taken out
	allocBytes   float64
	blockMedians []float64
	truncated    bool
}

// runLoop times ops ops in loopBlocks blocks with a collection between
// blocks, counting the allocations of the blocks only.  It stops early,
// and says so, once limit has passed — a guard for the driver's cap,
// never reached at the committed op counts.
func runLoop(inst instance, first, ops int, tr *tracer, limit time.Duration) *loopResult {
	res := &loopResult{}
	cost := calibCost()
	start := time.Now()
	var before, after runtime.MemStats
	done := 0
	for b := 0; b < loopBlocks && done < ops; b++ {
		n := ops / loopBlocks
		if b == loopBlocks-1 {
			n = ops - done
		}
		if n == 0 {
			continue
		}
		if b > 0 {
			runtime.GC()
		}
		if time.Since(start) > limit {
			res.truncated = true
			break
		}
		seen := len(res.rec.durs)
		kernels := calibRuns.Load()
		runtime.ReadMemStats(&before)
		inst.run(first+done, n, tr, &res.rec)
		runtime.ReadMemStats(&after)
		kernels = calibRuns.Load() - kernels
		res.mallocs += float64(after.Mallocs-before.Mallocs) - float64(kernels)*cost.mallocs
		res.allocBytes += float64(after.TotalAlloc-before.TotalAlloc) - float64(kernels)*cost.bytes
		if len(res.rec.durs) > seen {
			res.blockMedians = append(res.blockMedians, median(res.rec.durs[seen:]))
		}
		done += n
	}
	return res
}

// setUp sets the workload up e.setupReps times — set-up includes input
// generation, compiles, reference runs, oracle checks, server start and
// the discarded warm-up ops — keeps the last instance, and returns the
// median set-up time.
func setUp(w workload, e env) (instance, int, float64, error) {
	warm := max(1, int(math.Ceil(0.05*float64(e.ops(w)))))
	var times []float64
	for rep := 0; ; rep++ {
		var rec recorder
		e.clock = newStopwatch()
		inst, err := w.setup(e)
		if err != nil {
			return nil, 0, 0, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		e.clock.lap()
		inst.run(0, warm, nil, &rec)
		times = append(times, e.clock.lap()/1e3)
		if rec.failed > 0 {
			inst.close()
			return nil, 0, 0, fmt.Errorf("%s: warm-up: %d of %d ops failed: %w", w.name, rec.failed, rec.attempted, rec.firstErr)
		}
		if rep == e.setupReps-1 {
			return inst, warm, median(times), nil
		}
		if err := inst.close(); err != nil {
			return nil, 0, 0, fmt.Errorf("%s: closing set-up %d: %w", w.name, rep, err)
		}
		runtime.GC()
	}
}

// coldStartSamples is how many cold starts restart_ms_p50 is the median
// of, for the workloads that do not restart inside their loop.
const coldStartSamples = 25

// result is one workload's outcome in the contract's shape, plus the
// diagnostics a reader needs to judge the numbers.
type result struct {
	workload  string
	attempted int
	failed    int
	firstErr  error
	metrics   map[string]float64
	samples   int
	tailHi    float64 // highest percentile with minTailSamples beyond it
	tailShare float64
	spread    float64 // noise.block_spread of the timed loop
	speed     float64 // median speed factor of the timed loop
	truncated bool
}

func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// measure runs one workload untraced and returns its end-to-end
// metrics.
func measure(w workload, e env, limit time.Duration) (*result, error) {
	inst, warm, setupS, err := setUp(w, e)
	if err != nil {
		return nil, err
	}
	defer inst.close()
	ops := e.ops(w)
	loop := runLoop(inst, warm, ops, nil, limit)
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cold, err := inst.coldStarts(coldStartSamples)
	if err != nil {
		return nil, fmt.Errorf("%s: cold start: %w", w.name, err)
	}
	res := &result{workload: w.name, attempted: loop.rec.attempted, failed: loop.rec.failed,
		firstErr: loop.rec.firstErr, samples: len(loop.rec.durs), truncated: loop.truncated}
	if res.samples == 0 {
		return res, nil
	}
	res.tailHi, res.tailShare = highPercentile(loop.rec.durs)
	res.spread = blockSpread(loop.blockMedians)
	res.speed = median(loop.rec.speeds)
	n := float64(loop.rec.attempted)
	f := inst.facts()
	res.metrics = map[string]float64{
		"setup_s":         setupS,
		"op_ms_p50":       median(loop.rec.durs),
		"allocs_per_op":   loop.mallocs / n,
		"alloc_kb_per_op": loop.allocBytes / n / 1024,
		"live_heap_mb":    float64(ms.HeapAlloc) / (1 << 20),
		"restart_ms_p50":  median(cold),
		"virtual_ms":      f.virtualMS,
		"comm_msgs":       float64(f.msgs),
		"comm_bytes":      float64(f.bytes),
		"vs_hand":         f.vsHand,
		"output_kb":       inst.outputBytes() / 1024,
	}
	return res, nil
}

// tracedShare is the part of the untraced op count a traced loop runs.
const tracedShare = 0.2

// measureLayers is the traced run.  Per-layer numbers of all layers are
// reported whichever workloads are in focus: every workload is set up
// once and run traced at tracedShare of its op count, and its layers'
// micro-probes run once.  Only a focus workload is also run untraced at
// the same length, which gives trace.overhead_share and the loop's own
// tail and drift, and has its spans written out.  One result per focus
// workload, each carrying every layer metric.
func measureLayers(focus, all []workload, e env, limit time.Duration, outDir string) ([]*result, error) {
	e.setupReps = 1
	e.scale *= tracedShare
	shared := map[string]float64{}
	var results []*result
	for _, w := range all {
		inFocus := false
		for _, f := range focus {
			inFocus = inFocus || f.name == w.name
		}
		inst, warm, _, err := setUp(w, e)
		if err != nil {
			return nil, err
		}
		ops := e.ops(w)
		next := warm
		var plain *loopResult
		if inFocus {
			plain = runLoop(inst, next, ops, nil, limit)
			next += ops
			runtime.GC()
		}
		tr := newTracer(w.name)
		traced := runLoop(inst, next, ops, tr, limit)
		layers, err := w.layers(e, inst, tr)
		if cerr := inst.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("%s: layer metrics: %w", w.name, err)
		}
		for k, v := range layers {
			shared[k] = v
		}
		runtime.GC()
		if !inFocus {
			if traced.rec.failed > 0 {
				return nil, fmt.Errorf("%s: traced loop: %d of %d ops failed: %w", w.name,
					traced.rec.failed, traced.rec.attempted, traced.rec.firstErr)
			}
			continue
		}
		res := &result{workload: w.name,
			attempted: plain.rec.attempted + traced.rec.attempted,
			failed:    plain.rec.failed + traced.rec.failed,
			firstErr:  plain.rec.firstErr,
			samples:   len(plain.rec.durs),
			truncated: plain.truncated || traced.truncated,
			spread:    blockSpread(plain.blockMedians),
			speed:     median(plain.rec.speeds)}
		if res.firstErr == nil {
			res.firstErr = traced.rec.firstErr
		}
		res.tailHi, res.tailShare = highPercentile(plain.rec.durs)
		res.metrics = map[string]float64{
			"tail.op_ms_hi":        res.tailHi,
			"noise.block_spread":   res.spread,
			"noise.speed_factor":   res.speed,
			"trace.overhead_share": relDiff(median(plain.rec.durs), median(traced.rec.durs)),
		}
		if err := tr.write(outDir); err != nil {
			return nil, err
		}
		results = append(results, res)
	}
	// What the closures cost on the program both tiers ran: the share
	// of the closure engine's time the native kernels remove.
	if closure := shared["spmd.closure.sp16_ms"]; closure > 0 {
		shared["spmd.closure_self_share"] = 1 - shared["spmd.codegen.sp16_ms"]/closure
	}
	for _, res := range results {
		for k, v := range shared {
			res.metrics[k] = v
		}
	}
	return results, nil
}
