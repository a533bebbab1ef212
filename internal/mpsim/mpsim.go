// Package mpsim is a deterministic virtual-time message-passing machine:
// the experimental substrate standing in for the paper's 32-node IBM SP2.
//
// Each rank runs as a goroutine with its own virtual clock.  Computation
// advances the local clock by an analytic cost (seconds per flop);
// messages carry their sender's virtual timestamp plus a LogGP-style
// latency/bandwidth cost, and a receive advances the receiver's clock to
// at least the message's arrival time — so pipeline serialization, load
// imbalance and communication overhead all show up in the final clocks
// exactly as they would in a space–time diagram of a real run.
//
// Matching is deterministic (per (src,dst,tag) FIFO mailboxes), so both
// numeric results and virtual times are reproducible run to run,
// regardless of goroutine scheduling.
package mpsim

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Config fixes the machine size and cost model.
type Config struct {
	Procs int
	// SendOverhead is the sender-side CPU cost per message (seconds).
	SendOverhead float64
	// RecvOverhead is the receiver-side CPU cost per message (seconds).
	RecvOverhead float64
	// Latency is the network wire latency per message (seconds).
	Latency float64
	// GapPerByte is the inverse bandwidth (seconds per byte).
	GapPerByte float64
	// FlopTime is the cost of one floating-point operation (seconds).
	FlopTime float64
	// Trace enables space–time event capture.
	Trace bool
	// TimeLimit aborts the run once any rank's virtual clock exceeds it
	// (0 = unlimited).  Because virtual clocks are deterministic, whether
	// a run aborts is a deterministic function of the program and the
	// limit: a run aborts iff its makespan would exceed the limit.  The
	// auto-tuner uses this to abandon candidates that are already slower
	// than the incumbent (early pruning).
	TimeLimit float64
	// WallLimit aborts the run after a real-time duration (0 =
	// unlimited): a safety valve for pathological configurations whose
	// virtual clocks stop advancing (e.g. a deadlocked exchange), which
	// TimeLimit alone can never catch.
	WallLimit time.Duration
	// PinOSThreads locks every rank goroutine to its own OS thread for
	// the duration of the run (runtime.LockOSThread), so a run with
	// Procs ≤ GOMAXPROCS maps each rank onto a hardware thread and
	// wall-clock time scales with real cores instead of the scheduler's
	// whim.  Results are unaffected — pinning changes where goroutines
	// run, never what they compute — so it is safe to flip for
	// wall-clock benchmarking while keeping virtual clocks identical.
	PinOSThreads bool
}

// ErrAborted is the base error of every mpsim-initiated abort; aborted
// runs surface it (wrapped) through the body's panic-recovery path.
var ErrAborted = errors.New("mpsim: run aborted")

// ErrTimeLimit reports a Config.TimeLimit abort; wraps ErrAborted.
var ErrTimeLimit = fmt.Errorf("virtual time limit exceeded: %w", ErrAborted)

// ErrWallLimit reports a Config.WallLimit abort; wraps ErrAborted.
var ErrWallLimit = fmt.Errorf("wall-clock limit exceeded: %w", ErrAborted)

// SP2Config approximates a 1998 IBM SP2 with 120 MHz P2SC nodes and the
// user-space MPI library: ~29 µs one-way latency, ~90 MB/s bandwidth,
// ~80 Mflop/s sustained per node on these codes.
func SP2Config(procs int) Config {
	return Config{
		Procs:        procs,
		SendOverhead: 8e-6,
		RecvOverhead: 8e-6,
		Latency:      29e-6,
		GapPerByte:   1.0 / 90e6,
		FlopTime:     1.0 / 80e6,
	}
}

// EventKind classifies space–time trace events.
type EventKind int

const (
	EvCompute EventKind = iota
	EvSend
	EvRecvWait // time blocked waiting for a message (idle)
	EvRecvCopy // receive overhead after arrival
	EvBarrier
)

func (k EventKind) String() string {
	switch k {
	case EvCompute:
		return "compute"
	case EvSend:
		return "send"
	case EvRecvWait:
		return "wait"
	case EvRecvCopy:
		return "recv"
	case EvBarrier:
		return "barrier"
	}
	return "?"
}

// Event is one interval in a rank's space–time row.
type Event struct {
	Rank       int
	Kind       EventKind
	Start, End float64
	Peer       int // message peer, -1 otherwise
	Bytes      int
	Tag        int
	Label      string
}

// message is an in-flight message.
type message struct {
	data    []float64
	arrival float64 // virtual time the last byte reaches the receiver
	bytes   int
}

type mailboxKey struct {
	src, dst, tag int
}

type mailbox struct {
	mu    sync.Mutex
	cond  *sync.Cond
	queue []message
}

func (mb *mailbox) push(m message) {
	mb.mu.Lock()
	mb.queue = append(mb.queue, m)
	mb.cond.Signal()
	mb.mu.Unlock()
}

// pop blocks until a message is queued or the machine aborts.  The
// abort flag is re-checked around every wait: Abort broadcasts while
// holding mb.mu, so a waiter either sees the flag before sleeping or is
// woken by the broadcast — it can never sleep through an abort.
func (mb *mailbox) pop(m *Machine) message {
	mb.mu.Lock()
	for len(mb.queue) == 0 {
		if err := m.abortedErr(); err != nil {
			mb.mu.Unlock()
			panic(err)
		}
		mb.cond.Wait()
	}
	msg := mb.queue[0]
	mb.queue = mb.queue[1:]
	mb.mu.Unlock()
	return msg
}

// Machine is the running virtual machine.
type Machine struct {
	cfg Config
	// abortErr is set once by Abort; every rank observing it panics with
	// the stored error, which the body's recover handler reports.
	abortErr atomic.Pointer[error]
	mu       sync.Mutex
	boxes    map[mailboxKey]*mailbox

	barrierMu     sync.Mutex
	barrierCond   *sync.Cond
	barrierCount  int
	barrierGen    int
	barrierMax    float64
	barrierTarget float64 // completion time of the last finished barrier

	reduceMu     sync.Mutex
	reduceCond   *sync.Cond
	reduceCnt    int
	reduceGen    int
	reduceMax    float64
	reduceVals   []float64
	reduceSum    float64 // result of the last finished reduction
	reduceTarget float64

	// bufPool recycles message payload buffers: Send draws its internal
	// copy from here and Recycle returns consumed receive buffers.
	// Pooling is invisible to the machine's semantics — a drawn buffer is
	// resliced to the exact payload length and fully overwritten before
	// it is enqueued — so numeric results and virtual clocks are
	// byte-identical with or without recycling.
	bufPool sync.Pool
	// bufHigh is the high-water payload capacity (element count) seen by
	// getBuf, maintained with atomics because Send runs on every rank
	// goroutine concurrently.
	bufHigh int64
}

// getBuf returns a payload buffer of exactly n elements, reusing a
// recycled buffer when one of sufficient capacity is available.  Fresh
// allocations carry the high-water capacity, not just n: on mixed-size
// transfer patterns (a small exchange recycled between two large ones)
// the pooled buffer drawn for a large payload is often the small one,
// and allocating at exactly n would re-grow from scratch every time the
// sizes alternate.  Allocating at the high-water mark instead makes the
// pool converge to buffers that fit every payload in the run.
func (m *Machine) getBuf(n int) []float64 {
	for {
		h := atomic.LoadInt64(&m.bufHigh)
		if int64(n) <= h {
			break
		}
		if atomic.CompareAndSwapInt64(&m.bufHigh, h, int64(n)) {
			break
		}
	}
	if v := m.bufPool.Get(); v != nil {
		if b := v.(*[]float64); cap(*b) >= n {
			return (*b)[:n]
		}
	}
	return make([]float64, n, atomic.LoadInt64(&m.bufHigh))
}

// Rank is one simulated processor, owned by its goroutine.
type Rank struct {
	ID     int
	m      *Machine
	clock  float64
	flops  float64
	sent   int64
	sentB  int64
	recvd  int64
	idle   float64
	events []Event
}

// Result aggregates a finished run.
type Result struct {
	Procs int
	// Time is the makespan: the maximum final virtual clock.
	Time float64
	// RankTime, RankIdle, RankFlops, Sent*, Recvd index by rank.
	RankTime  []float64
	RankIdle  []float64
	RankFlops []float64
	SentMsgs  []int64
	SentBytes []int64
	RecvMsgs  []int64
	Events    []Event
}

// TotalMessages sums messages sent by all ranks.
func (r *Result) TotalMessages() int64 {
	var n int64
	for _, s := range r.SentMsgs {
		n += s
	}
	return n
}

// TotalBytes sums bytes sent by all ranks.
func (r *Result) TotalBytes() int64 {
	var n int64
	for _, s := range r.SentBytes {
		n += s
	}
	return n
}

// Run executes body on every rank concurrently and collects the result.
//
// When the machine aborts (Config.TimeLimit, Config.WallLimit), every
// rank blocked in a machine operation is woken and panics with an error
// wrapping ErrAborted; body is expected to recover it (the spmd executor
// and the nas hand-coded drivers do) and surface it to their caller.
func Run(cfg Config, body func(r *Rank)) *Result {
	if cfg.Procs <= 0 {
		panic("mpsim: Procs must be positive")
	}
	m := &Machine{cfg: cfg, boxes: map[mailboxKey]*mailbox{}}
	m.barrierCond = sync.NewCond(&m.barrierMu)
	m.reduceCond = sync.NewCond(&m.reduceMu)

	var wallTimer *time.Timer
	if cfg.WallLimit > 0 {
		wallTimer = time.AfterFunc(cfg.WallLimit, func() { m.Abort(ErrWallLimit) })
	}

	ranks := make([]*Rank, cfg.Procs)
	var wg sync.WaitGroup
	for i := 0; i < cfg.Procs; i++ {
		ranks[i] = &Rank{ID: i, m: m}
		wg.Add(1)
		go func(r *Rank) {
			defer wg.Done()
			if cfg.PinOSThreads {
				runtime.LockOSThread()
				defer runtime.UnlockOSThread()
			}
			body(r)
		}(ranks[i])
	}
	wg.Wait()
	if wallTimer != nil {
		wallTimer.Stop()
	}

	res := &Result{
		Procs:     cfg.Procs,
		RankTime:  make([]float64, cfg.Procs),
		RankIdle:  make([]float64, cfg.Procs),
		RankFlops: make([]float64, cfg.Procs),
		SentMsgs:  make([]int64, cfg.Procs),
		SentBytes: make([]int64, cfg.Procs),
		RecvMsgs:  make([]int64, cfg.Procs),
	}
	for i, r := range ranks {
		res.RankTime[i] = r.clock
		res.RankIdle[i] = r.idle
		res.RankFlops[i] = r.flops
		res.SentMsgs[i] = r.sent
		res.SentBytes[i] = r.sentB
		res.RecvMsgs[i] = r.recvd
		res.Time = math.Max(res.Time, r.clock)
		res.Events = append(res.Events, r.events...)
	}
	sort.Slice(res.Events, func(i, j int) bool {
		if res.Events[i].Rank != res.Events[j].Rank {
			return res.Events[i].Rank < res.Events[j].Rank
		}
		return res.Events[i].Start < res.Events[j].Start
	})
	return res
}

// Abort marks the machine dead with the given cause (first call wins)
// and wakes every rank blocked in a receive, barrier or reduction; woken
// ranks — and any rank entering a machine operation afterwards — panic
// with the cause, to be recovered by the run body.
func (m *Machine) Abort(cause error) {
	if cause == nil {
		cause = ErrAborted
	}
	if !m.abortErr.CompareAndSwap(nil, &cause) {
		return
	}
	// Broadcast under each condition's own lock: a waiter holds that
	// lock from its flag check until Wait releases it, so it either saw
	// the flag or receives this wake-up.
	m.mu.Lock()
	boxes := make([]*mailbox, 0, len(m.boxes))
	for _, mb := range m.boxes {
		boxes = append(boxes, mb)
	}
	m.mu.Unlock()
	for _, mb := range boxes {
		mb.mu.Lock()
		mb.cond.Broadcast()
		mb.mu.Unlock()
	}
	m.barrierMu.Lock()
	m.barrierCond.Broadcast()
	m.barrierMu.Unlock()
	m.reduceMu.Lock()
	m.reduceCond.Broadcast()
	m.reduceMu.Unlock()
}

// Abort lets a rank kill its own machine — typically from a panic
// handler, so peers blocked on a message, barrier or reduction the dead
// rank will never complete unwind instead of deadlocking.
func (r *Rank) Abort(cause error) { r.m.Abort(cause) }

// abortedErr returns the abort cause, or nil while the machine is live.
func (m *Machine) abortedErr() error {
	if p := m.abortErr.Load(); p != nil {
		return *p
	}
	return nil
}

// checkLimits panics with the abort cause if the machine is dead, and
// trips the virtual-time limit when this rank's clock has passed it.
// Called from every clock-advancing operation, so an over-limit run
// aborts deterministically: virtual clocks only grow, hence a run aborts
// iff its makespan would exceed the limit.
func (r *Rank) checkLimits() {
	m := r.m
	if err := m.abortedErr(); err != nil {
		panic(err)
	}
	if m.cfg.TimeLimit > 0 && r.clock > m.cfg.TimeLimit {
		m.Abort(ErrTimeLimit)
		panic(ErrTimeLimit)
	}
}

func (m *Machine) box(k mailboxKey) *mailbox {
	m.mu.Lock()
	defer m.mu.Unlock()
	mb, ok := m.boxes[k]
	if !ok {
		mb = &mailbox{}
		mb.cond = sync.NewCond(&mb.mu)
		m.boxes[k] = mb
	}
	return mb
}

// Procs returns the machine size.
func (r *Rank) Procs() int { return r.m.cfg.Procs }

// Time returns the rank's current virtual clock (seconds).
func (r *Rank) Time() float64 { return r.clock }

// Compute advances the clock by flops floating-point operations.
func (r *Rank) Compute(flops float64) {
	if flops <= 0 {
		return
	}
	dt := flops * r.m.cfg.FlopTime
	r.emit(Event{Kind: EvCompute, Start: r.clock, End: r.clock + dt, Peer: -1})
	r.clock += dt
	r.flops += flops
	r.checkLimits()
}

// ComputeLabeled is Compute with a phase label recorded in the trace.
func (r *Rank) ComputeLabeled(flops float64, label string) {
	if flops <= 0 {
		return
	}
	dt := flops * r.m.cfg.FlopTime
	r.emit(Event{Kind: EvCompute, Start: r.clock, End: r.clock + dt, Peer: -1, Label: label})
	r.clock += dt
	r.flops += flops
	r.checkLimits()
}

// Send transmits data to rank dst with a tag.  The model is a buffered
// (non-blocking) send: the sender pays its overhead and continues; the
// message arrives at sender_clock + overhead + latency + bytes/bandwidth.
//
// Send copies data into an internal buffer before it returns, so the
// caller may immediately reuse (or mutate) data after the call — the
// contract the spmd engine's pooled packing buffers rely on.  This is a
// stable part of the API, covered by TestSendCopiesCallerBuffer.
func (r *Rank) Send(dst, tag int, data []float64) {
	if dst < 0 || dst >= r.m.cfg.Procs {
		panic(fmt.Sprintf("mpsim: Send to invalid rank %d", dst))
	}
	r.checkLimits()
	bytes := 8 * len(data)
	cost := r.m.cfg.SendOverhead + float64(bytes)*r.m.cfg.GapPerByte
	r.emit(Event{Kind: EvSend, Start: r.clock, End: r.clock + cost, Peer: dst, Bytes: bytes, Tag: tag})
	r.clock += cost
	arrival := r.clock + r.m.cfg.Latency
	cp := r.m.getBuf(len(data))
	copy(cp, data)
	r.m.box(mailboxKey{src: r.ID, dst: dst, tag: tag}).push(message{data: cp, arrival: arrival, bytes: bytes})
	r.sent++
	r.sentB += int64(bytes)
}

// Recv blocks until a message from src with the tag arrives, advancing
// the virtual clock to the arrival time (idle time is recorded).
//
// The returned slice is owned by the caller.  A caller that has fully
// consumed it may hand it back with Recycle so later Sends reuse the
// storage instead of allocating.
func (r *Rank) Recv(src, tag int) []float64 {
	if src < 0 || src >= r.m.cfg.Procs {
		panic(fmt.Sprintf("mpsim: Recv from invalid rank %d", src))
	}
	r.checkLimits()
	msg := r.m.box(mailboxKey{src: src, dst: r.ID, tag: tag}).pop(r.m)
	if msg.arrival > r.clock {
		r.emit(Event{Kind: EvRecvWait, Start: r.clock, End: msg.arrival, Peer: src, Bytes: msg.bytes, Tag: tag})
		r.idle += msg.arrival - r.clock
		r.clock = msg.arrival
	}
	cost := r.m.cfg.RecvOverhead
	r.emit(Event{Kind: EvRecvCopy, Start: r.clock, End: r.clock + cost, Peer: src, Bytes: msg.bytes, Tag: tag})
	r.clock += cost
	r.recvd++
	r.checkLimits()
	return msg.data
}

// Recycle returns a buffer previously obtained from Recv to the
// machine's payload pool.  The caller must not touch buf afterwards: a
// later Send on any rank may reclaim and overwrite it.  Recycling is
// optional — unreturned buffers are simply garbage-collected — and never
// changes results: pooled buffers are resliced to the exact new payload
// length and fully overwritten before reuse.
func (r *Rank) Recycle(buf []float64) {
	if buf == nil {
		return
	}
	r.m.bufPool.Put(&buf)
}

// Request is a pending non-blocking receive.
type Request struct {
	rank *Rank
	src  int
	tag  int
	done bool
	data []float64
}

// Irecv posts a non-blocking receive; Wait completes it.
func (r *Rank) Irecv(src, tag int) *Request {
	return &Request{rank: r, src: src, tag: tag}
}

// Wait completes a pending receive.
func (q *Request) Wait() []float64 {
	if !q.done {
		q.data = q.rank.Recv(q.src, q.tag)
		q.done = true
	}
	return q.data
}

// Barrier synchronizes all ranks; every clock advances to the global max
// plus a log-tree latency term.  The completing rank computes the target
// time; waiters read it after wake-up.  A subsequent barrier cannot start
// overwriting state until every rank of this one has re-entered, so the
// published target is stable for all readers.
func (r *Rank) Barrier() {
	r.checkLimits()
	m := r.m
	m.barrierMu.Lock()
	gen := m.barrierGen
	if m.barrierCount == 0 {
		m.barrierMax = 0
	}
	if r.clock > m.barrierMax {
		m.barrierMax = r.clock
	}
	m.barrierCount++
	if m.barrierCount == m.cfg.Procs {
		m.barrierCount = 0
		m.barrierTarget = m.barrierMax + m.cfg.Latency*math.Ceil(math.Log2(float64(m.cfg.Procs)))
		m.barrierGen++
		m.barrierCond.Broadcast()
	} else {
		for gen == m.barrierGen {
			if err := m.abortedErr(); err != nil {
				m.barrierMu.Unlock()
				panic(err)
			}
			m.barrierCond.Wait()
		}
	}
	target := m.barrierTarget
	m.barrierMu.Unlock()

	if target > r.clock {
		r.emit(Event{Kind: EvBarrier, Start: r.clock, End: target, Peer: -1})
		r.idle += target - r.clock
		r.clock = target
	}
}

// AllReduceSum combines one value from every rank; all ranks receive the
// global sum and advance to the combined completion time.
func (r *Rank) AllReduceSum(v float64) float64 { return r.AllReduce('+', v) }

// AllReduce combines one value from every rank under op: '+' sum,
// '*' product, '<' min, '>' max.  All ranks receive the result and
// advance to the combined completion time (log-tree latency).
//
// Contributions are folded in rank order 0..P-1 regardless of which
// goroutine arrives last, so floating-point reductions are bit-exact
// run to run — and bit-exact against the shared-memory backend, whose
// teams fold in the same order.
func (r *Rank) AllReduce(op byte, v float64) float64 {
	r.checkLimits()
	m := r.m
	m.reduceMu.Lock()
	gen := m.reduceGen
	if m.reduceCnt == 0 {
		if cap(m.reduceVals) < m.cfg.Procs {
			m.reduceVals = make([]float64, m.cfg.Procs)
		}
		m.reduceVals = m.reduceVals[:m.cfg.Procs]
		m.reduceMax = 0
	}
	m.reduceVals[r.ID] = v
	if r.clock > m.reduceMax {
		m.reduceMax = r.clock
	}
	m.reduceCnt++
	if m.reduceCnt == m.cfg.Procs {
		m.reduceCnt = 0
		sum := m.reduceVals[0]
		for _, x := range m.reduceVals[1:] {
			switch op {
			case '+':
				sum += x
			case '*':
				sum *= x
			case '<':
				sum = math.Min(sum, x)
			case '>':
				sum = math.Max(sum, x)
			default:
				panic(fmt.Sprintf("mpsim: unknown reduction op %q", op))
			}
		}
		steps := math.Ceil(math.Log2(float64(m.cfg.Procs)))
		m.reduceSum = sum
		m.reduceTarget = m.reduceMax + steps*(m.cfg.Latency+8*m.cfg.GapPerByte)
		m.reduceGen++
		m.reduceCond.Broadcast()
	} else {
		for gen == m.reduceGen {
			if err := m.abortedErr(); err != nil {
				m.reduceMu.Unlock()
				panic(err)
			}
			m.reduceCond.Wait()
		}
	}
	sum := m.reduceSum
	target := m.reduceTarget
	m.reduceMu.Unlock()

	if target > r.clock {
		r.emit(Event{Kind: EvBarrier, Start: r.clock, End: target, Peer: -1, Label: "allreduce"})
		r.idle += target - r.clock
		r.clock = target
	}
	return sum
}

func (r *Rank) emit(e Event) {
	if !r.m.cfg.Trace {
		return
	}
	e.Rank = r.ID
	r.events = append(r.events, e)
}
