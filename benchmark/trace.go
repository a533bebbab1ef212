package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the layer's exported functions.  Spans of one op share Op; Parent is
// the enclosing span's ID (0 for an op's root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Layer    string `json:"layer"`
	Workload string `json:"workload"`
	Op       int    `json:"op"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s span) durMS() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

// tracer keeps a traced run's spans in memory; they are written out once,
// when the run ends.  A nil *tracer (and a nil *thread) records nothing,
// which is how untraced runs execute the same op code.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	spans []span
	// speeds holds each op's speed factor (see calib.go): spans stay
	// as measured, the metrics derived from them are scaled per op.
	speeds map[int]float64
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now(), speeds: map[int]float64{}}
}

// setSpeed records the speed factor of the moment op ran in.
func (t *tracer) setSpeed(op int, speed float64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.speeds[op] = speed
	t.mu.Unlock()
}

// thread is one goroutine's view of the tracer: its own stack of open
// spans, so concurrent clients nest their spans independently.
type thread struct {
	t     *tracer
	op    int
	stack []int
}

// thread returns a recording context for one goroutine.
func (t *tracer) thread() *thread {
	if t == nil {
		return nil
	}
	return &thread{t: t}
}

// setOp names the op the following spans belong to.
func (th *thread) setOp(op int) {
	if th != nil {
		th.op = op
	}
}

// do runs f inside a span named "<layer>.<what>".
func (th *thread) do(layer, what string, f func()) {
	if th == nil {
		f()
		return
	}
	t := th.t
	parent := 0
	if n := len(th.stack); n > 0 {
		parent = th.stack[n-1]
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: layer + "." + what,
		Layer: layer, Workload: t.workload, Op: th.op})
	t.mu.Unlock()
	th.stack = append(th.stack, id)
	start := time.Since(t.epoch)
	f()
	end := time.Since(t.epoch)
	th.stack = th.stack[:len(th.stack)-1]
	t.mu.Lock()
	t.spans[id-1].StartNS = start.Nanoseconds()
	t.spans[id-1].EndNS = end.Nanoseconds()
	t.mu.Unlock()
}

// selfMS returns each span's self time: its duration minus the part its
// child spans cover.  Children of one span never overlap (one goroutine
// runs them in sequence), so their durations simply add up.
func selfMS(spans []span) map[int]float64 {
	self := make(map[int]float64, len(spans))
	for _, s := range spans {
		self[s.ID] += s.durMS()
		if s.Parent != 0 {
			self[s.Parent] -= s.durMS()
		}
	}
	return self
}

// perOp sums, for every op, the durations of the spans with the given
// name, and returns one total per op that has such a span, in
// reference-box milliseconds.
func (t *tracer) perOp(name string) []float64 {
	byOp := map[int]float64{}
	for _, s := range t.spans {
		if s.Name == name {
			byOp[s.Op] += s.durMS()
		}
	}
	out := make([]float64, 0, len(byOp))
	for op, v := range byOp {
		if speed, ok := t.speeds[op]; ok {
			v *= speed
		}
		out = append(out, v)
	}
	return out
}

// rootCoverage is the share of the root spans' time that their children
// account for: 1 − Σ root self ÷ Σ root duration.
func rootCoverage(spans []span) float64 {
	self := selfMS(spans)
	var total, rootSelf float64
	for _, s := range spans {
		if s.Parent == 0 {
			total += s.durMS()
			rootSelf += self[s.ID]
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - rootSelf/total
}

// write stores the spans as benchmark/out/trace-<workload>.json under
// dir.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans   []span          `json:"spans"`
		OpSpeed map[int]float64 `json:"op_speed"`
	}{t.spans, t.speeds})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), data, 0o644)
}
