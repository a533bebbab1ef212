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
// Matching is deterministic — a receive names its source and tag exactly,
// and the messages from one source under one tag are taken in posting
// order — so both numeric results and virtual times are reproducible run
// to run, regardless of goroutine scheduling.
//
// The package is the one machine core under every execution substrate:
// rank goroutines, clocks and idle accounting, one mailbox per rank
// (allocated with the machine: the rank's queued messages and the payload
// buffers it recycled, by size class), the abort protocol — a rank
// body's panic included (RankPanic) — the deadlock detector, barriers,
// rank-order reductions, trace capture and result assembly live here
// once.  Send/Recv below are the message front;
// internal/shm is the shared-memory front, built on Post, Take, PaySend,
// Spend, Sleep, Wake and NewCond.
//
// A machine runs more than once.  Every run starts its clocks, counters,
// collectives, wait table and abort flag at zero, and Configure rebinds
// the cost model and limits between runs, while the ranks, the mailboxes'
// queue storage and their payload free lists stay: a caller that keeps a
// machine (internal/spmd keeps one per compiled program) sends its next
// run's messages into the buffers the last run recycled.
package mpsim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
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
}

// ErrAborted is the base error of every mpsim-initiated abort: the error
// an aborted run returns wraps it, unless a rank's own panic caused the
// abort (RankPanic).
var ErrAborted = errors.New("mpsim: run aborted")

// ErrTimeLimit reports a Config.TimeLimit abort; wraps ErrAborted.
var ErrTimeLimit = fmt.Errorf("virtual time limit exceeded: %w", ErrAborted)

// ErrDeadlock is what errors.Is matches on a run that could never have
// finished: every rank blocked or returned, at least one blocked.  The
// error a run returns wraps it (and, through it, ErrAborted) and reads
// "deadlock: " followed by every rank's wait in rank order.
var ErrDeadlock = fmt.Errorf("deadlock: %w", ErrAborted)

// RankPanic is the abort cause of a run in which a rank body panicked
// with a value the machine did not raise itself: Value is what it
// panicked with.  It does not wrap ErrAborted, so a caller tells a broken
// rank from a time limit or a deadlock, and it reads "rank N: value" for
// the caller to prefix with its own name.
type RankPanic struct {
	Rank  int
	Value any
}

func (p *RankPanic) Error() string { return fmt.Sprintf("rank %d: %v", p.Rank, p.Value) }

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

// Message is what a sender posts to a rank's mailbox and the rank takes.
// The message front queues a payload copy (Data); the shared-memory front
// queues a reference to the producer's storage (Ref).
type Message struct {
	Data []float64
	Ref  any
	// At is the virtual time the data is available to the receiver.
	At float64
}

// letter is a queued message with its sender and tag.
type letter struct {
	src, tag int
	Message
}

// mailbox is one rank's incoming messages.  Every sender to the rank
// appends under mu; only the rank itself takes, so cond has at most one
// waiter.  free holds the payload buffers the rank recycled, by size
// class: a Send to the rank copies into one of them, so in a steady
// exchange buffers circulate between the mailbox and its owner and a
// message allocates nothing.
type mailbox struct {
	mu    sync.Mutex
	cond  sync.Cond
	queue []letter // queue[head:] waits, in posting order
	head  int
	// free[c] holds recycled buffers whose capacity is at least 1<<c and
	// less than 1<<(c+1).
	free [bits.UintSize][][]float64
}

// push appends l, reusing the queue's storage: a full queue whose front
// was taken slides down before it would grow.
func (mb *mailbox) push(l letter) {
	if len(mb.queue) == cap(mb.queue) && mb.head > 0 {
		n := copy(mb.queue, mb.queue[mb.head:])
		clear(mb.queue[n:])
		mb.queue, mb.head = mb.queue[:n], 0
	}
	mb.queue = append(mb.queue, l)
}

// take removes and returns the first queued message from src under tag.
func (mb *mailbox) take(src, tag int) (Message, bool) {
	q := mb.queue
	for i := mb.head; i < len(q); i++ {
		if q[i].src != src || q[i].tag != tag {
			continue
		}
		msg := q[i].Message
		if i == mb.head {
			q[i] = letter{}
			mb.head++
		} else {
			copy(q[i:], q[i+1:])
			q[len(q)-1] = letter{}
			mb.queue = q[:len(q)-1]
		}
		if mb.head == len(mb.queue) {
			mb.queue, mb.head = mb.queue[:0], 0
		}
		return msg, true
	}
	return Message{}, false
}

// buf returns a payload buffer of exactly n elements: one the owner
// recycled from n's size class — the capacities from n rounded up to a
// power of two to just under twice that — else a fresh one with that
// power of two as capacity.  A class only ever serves its own sizes, so
// however the sizes of a machine's runs mix, each class holds no more
// buffers than the owner once had messages of its sizes in flight, each
// under twice the size of any of them.
func (mb *mailbox) buf(n int) []float64 {
	c := bits.Len(uint(max(n, 1) - 1))
	free := mb.free[c]
	if k := len(free) - 1; k >= 0 {
		b := free[k]
		free[k] = nil
		mb.free[c] = free[:k]
		return b[:n]
	}
	return make([]float64, n, 1<<c)
}

// recycle files b under its capacity's size class.
func (mb *mailbox) recycle(b []float64) {
	if cap(b) == 0 {
		return
	}
	c := bits.Len(uint(cap(b))) - 1
	mb.free[c] = append(mb.free[c], b)
}

// SyncCost is what completing a team-wide collective adds to the latest
// arrival; a front computes its log-tree terms once per run.  Reduce's
// terms are added one at a time, in order: pre-summing them would change
// the last bit of every clock downstream.
type SyncCost struct {
	Barrier float64
	Reduce  [3]float64
}

// collective is one generation-counted team-wide meeting point.  The
// completing rank publishes target and result; waiters read them after
// wake-up.  The next generation cannot complete — and so cannot overwrite
// them — until every rank of this one has left and re-entered.
type collective struct {
	mu     sync.Mutex
	cond   sync.Cond
	on     Wait // what a rank sleeping here waits on
	cost   [3]float64
	count  int
	gen    int
	max    float64   // latest arrival of the generation being assembled
	vals   []float64 // its contributions, by rank
	target float64   // completion time of the last finished generation
	result float64   // its fold
}

// Wait names what a rank sleeps for: a message from Src under Tag or,
// when On is set, a team-wide condition — a collective, or a front's own.
type Wait struct {
	On       string
	Src, Tag int
}

const (
	running = iota
	blocked
	finished
)

// waitTable is the deadlock detector: one row per rank saying whether it
// runs, sleeps (on what, holding what) or has returned.  A row turns
// blocked in Sleep, under the lock of the condition the rank is about to
// wait on, and turns back in Wake, called by whoever makes that condition
// true while it holds the same lock and before it signals — so a rank that
// was signalled but has not run yet never counts as blocked.  Lock order
// is always condition, then mu.  DESIGN.md ("A hang is a value") argues
// why the state it reports is the same on every run.
type waitTable struct {
	mu      sync.Mutex
	rows    []waitRow
	running int
	// asleep counts the blocked rows; written under mu, read without it
	// by Wake.
	asleep atomic.Int32
}

type waitRow struct {
	state int
	on    Wait
	held  string // Rank.Holding when the rank blocked
	heldN int
}

// settle moves r's row to blocked (on what it sleeps for) or finished and,
// when that leaves no rank running and at least one asleep, returns the
// deadlock: every row, in rank order.
func (t *waitTable) settle(r *Rank, state int, on Wait) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	row := &t.rows[r.ID]
	switch row.state {
	case running:
		t.running--
	case blocked: // woken by a broadcast meant for another rank, or by an abort
		t.asleep.Add(-1)
	}
	if state == blocked {
		t.asleep.Add(1)
	}
	*row = waitRow{state: state, on: on, held: r.held, heldN: r.heldN}
	if t.running > 0 || t.asleep.Load() == 0 {
		return nil
	}
	b := []byte("deadlock: ")
	for id, row := range t.rows {
		if id > 0 {
			b = append(b, "; "...)
		}
		switch {
		case row.state == finished:
			b = fmt.Appendf(b, "rank %d finished", id)
			continue
		case row.on.On != "":
			b = fmt.Appendf(b, "rank %d in %s", id, row.on.On)
		default:
			b = fmt.Appendf(b, "rank %d <- rank %d tag %d", id, row.on.Src, row.on.Tag)
		}
		if row.held != "" {
			b = fmt.Appendf(b, " %s[%d]", row.held, row.heldN)
		}
	}
	return deadlockError(b)
}

type deadlockError string

func (e deadlockError) Error() string { return string(e) }
func (e deadlockError) Unwrap() error { return ErrDeadlock }

// Machine is the virtual machine.
type Machine struct {
	cfg Config
	// abortErr is set once per run by Abort; every rank observing it
	// panics with the stored error, and Run returns it.
	abortErr atomic.Pointer[error]
	// ranks and boxes hold each rank and its mailbox, by rank, for the
	// machine's life.
	ranks []Rank
	boxes []mailbox
	wg    sync.WaitGroup
	// mu guards conds: every condition a rank can block on other than its
	// mailbox's — both collectives' and whatever a front registered with
	// NewCond.
	mu    sync.Mutex
	conds []*sync.Cond

	barrier, reduce collective
	waits           waitTable
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
	syncs  int64
	events []Event
	// held is what the caller said it is moving (Holding), copied into the
	// wait table when the rank blocks.
	held  string
	heldN int
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

// Run executes body on every rank of a message machine concurrently and
// collects the result; barriers and reductions complete a log-tree of
// message latencies after the last arrival.
//
// When the machine aborts (Config.TimeLimit, a deadlock, Rank.Abort),
// every rank blocked in a machine operation is woken and panics with the
// cause; the machine recovers what body does not.  A rank body's own
// panic aborts the run too, and Run re-panics it, as a *RankPanic, on
// the caller's goroutine.  A caller that wants the abort cause as an
// error runs a Machine (Machine.Run).
func Run(cfg Config, body func(r *Rank)) *Result {
	res, err := NewMachine(cfg, MessageCost(cfg)).Run(body)
	if p, ok := err.(*RankPanic); ok {
		panic(p)
	}
	return res
}

// MessageCost is the message machine's collective cost: a log-tree of
// message latencies, plus a reduction's 8 bytes per step.
func MessageCost(cfg Config) SyncCost {
	steps := math.Ceil(math.Log2(float64(cfg.Procs)))
	return SyncCost{
		Barrier: cfg.Latency * steps,
		Reduce:  [3]float64{steps * (cfg.Latency + 8*cfg.GapPerByte)},
	}
}

// NewMachine builds a machine of cfg.Procs ranks whose collectives
// complete cost after the last arrival.  A front with a blocking
// condition of its own registers it (NewCond) before calling Run.
func NewMachine(cfg Config, cost SyncCost) *Machine {
	if cfg.Procs <= 0 {
		panic("mpsim: Procs must be positive")
	}
	m := &Machine{ranks: make([]Rank, cfg.Procs), boxes: make([]mailbox, cfg.Procs)}
	for i := range m.boxes {
		m.ranks[i] = Rank{ID: i, m: m}
		m.boxes[i].cond.L = &m.boxes[i].mu
	}
	m.waits.rows = make([]waitRow, cfg.Procs)
	m.barrier.on, m.reduce.on = Wait{On: "barrier"}, Wait{On: "allreduce"}
	for _, c := range []*collective{&m.barrier, &m.reduce} {
		c.cond.L = &c.mu
		c.vals = make([]float64, cfg.Procs)
		m.conds = append(m.conds, &c.cond)
	}
	m.Configure(cfg, cost)
	return m
}

// Configure sets the configuration and collective cost of the machine's
// next runs; the rank count is the machine's for life.
func (m *Machine) Configure(cfg Config, cost SyncCost) {
	if cfg.Procs != len(m.ranks) {
		panic(fmt.Sprintf("mpsim: a machine of %d ranks configured for %d", len(m.ranks), cfg.Procs))
	}
	m.cfg = cfg
	m.barrier.cost = [3]float64{cost.Barrier}
	m.reduce.cost = cost.Reduce
}

// Rank returns rank id, the same Rank in every run of the machine.
func (m *Machine) Rank(id int) *Rank { return &m.ranks[id] }

// Idle reports whether the machine's last run ended cleanly: no abort,
// and no message left queued in any mailbox.
func (m *Machine) Idle() bool {
	if m.abortedErr() != nil {
		return false
	}
	for i := range m.boxes {
		if mb := &m.boxes[i]; mb.head != len(mb.queue) {
			return false
		}
	}
	return true
}

// reset starts a run: clocks, counters, events, collectives, the wait
// table and the abort flag at zero, every queue empty.  What the ranks
// recycled stays in their free lists.
func (m *Machine) reset() {
	m.abortErr.Store(nil)
	for i := range m.ranks {
		m.ranks[i] = Rank{ID: i, m: m}
		mb := &m.boxes[i]
		clear(mb.queue)
		mb.queue, mb.head = mb.queue[:0], 0
	}
	for _, c := range []*collective{&m.barrier, &m.reduce} {
		c.count, c.gen, c.max, c.target, c.result = 0, 0, 0, 0, 0
	}
	clear(m.waits.rows)
	m.waits.running = len(m.ranks)
	m.waits.asleep.Store(0)
}

// NewCond returns a condition on l that Abort wakes; ranks wait on it
// through Sleep.
func (m *Machine) NewCond(l sync.Locker) *sync.Cond {
	c := sync.NewCond(l)
	m.mu.Lock()
	m.conds = append(m.conds, c)
	m.mu.Unlock()
	return c
}

// Run executes body on every rank concurrently and collects the result.
// The error is the abort cause, nil when the run finished: an error
// wrapping ErrAborted (the time limit, a deadlock, Rank.Abort's cause)
// or the *RankPanic of the first rank body that panicked.  The machine
// may run again once Run has returned.
func (m *Machine) Run(body func(r *Rank)) (*Result, error) {
	m.reset()
	for i := range m.ranks {
		m.wg.Add(1)
		go m.runRank(&m.ranks[i], body)
	}
	m.wg.Wait()

	p := len(m.ranks)
	floats, counts := make([]float64, 3*p), make([]int64, 3*p)
	res := &Result{
		Procs:     p,
		RankTime:  floats[:p:p],
		RankIdle:  floats[p : 2*p : 2*p],
		RankFlops: floats[2*p:],
		SentMsgs:  counts[:p:p],
		SentBytes: counts[p : 2*p : 2*p],
		RecvMsgs:  counts[2*p:],
	}
	for i := range m.ranks {
		r := &m.ranks[i]
		res.RankTime[i] = r.clock
		res.RankIdle[i] = r.idle
		res.RankFlops[i] = r.flops
		res.SentMsgs[i] = r.sent
		res.SentBytes[i] = r.sentB
		res.RecvMsgs[i] = r.recvd
		res.Time = math.Max(res.Time, r.clock)
		res.Events = append(res.Events, r.events...)
	}
	if len(res.Events) > 0 {
		sort.Slice(res.Events, func(i, j int) bool {
			if res.Events[i].Rank != res.Events[j].Rank {
				return res.Events[i].Rank < res.Events[j].Rank
			}
			return res.Events[i].Start < res.Events[j].Start
		})
	}
	return res, m.abortedErr()
}

// runRank runs body on r.  A panic out of body on a live machine kills
// it: a dead rank can never send, publish or acknowledge again, so its
// peers unwind at once, with its panic and not the deadlock its absence
// would be found as.  A panic on a dead machine is the abort unwinding
// the rank, and the first cause stands.
func (m *Machine) runRank(r *Rank, body func(r *Rank)) {
	defer m.wg.Done()
	defer func() {
		v := recover()
		if v == nil || m.abortedErr() != nil {
			return
		}
		err, ok := v.(error)
		if !ok || !errors.Is(err, ErrAborted) {
			err = &RankPanic{Rank: r.ID, Value: v}
		}
		m.Abort(err)
	}()
	body(r)
	// A returned rank will never post, complete or acknowledge again:
	// peers still asleep once every rank has settled wait forever.
	if err := m.waits.settle(r, finished, Wait{}); err != nil {
		m.Abort(err)
	}
}

// Abort marks the machine dead with the given cause (first call wins)
// and wakes every blocked rank; woken ranks — and any rank entering a
// machine operation afterwards — panic with the cause, which the machine
// recovers unless the run body does.
func (m *Machine) Abort(cause error) {
	if cause == nil {
		cause = ErrAborted
	}
	if !m.abortErr.CompareAndSwap(nil, &cause) {
		return
	}
	// Broadcast under each condition's own lock: a waiter holds that
	// lock from its flag check until Wait releases it, so it either saw
	// the flag or receives this wake-up.  No rank takes m.mu while it
	// holds a condition's lock, so holding it across the sweep is safe.
	wake := func(c *sync.Cond) {
		c.L.Lock()
		c.Broadcast()
		c.L.Unlock()
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, c := range m.conds {
		wake(c)
	}
	for i := range m.boxes {
		wake(&m.boxes[i].cond)
	}
}

// Abort lets a rank kill its own machine with a cause of its own: peers
// blocked on a message, rendezvous, barrier or reduction unwind with it.
func (r *Rank) Abort(cause error) { r.m.Abort(cause) }

// abortedErr returns the abort cause, or nil while the machine is live.
func (m *Machine) abortedErr() error {
	if p := m.abortErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Sleep is the machine's one blocking site: every wait — for a message,
// a collective or a front's own condition — loops over it with c.L held,
// saying what it waits on.  It waits on c, unless the machine is dead or
// this rank was the last one running (a deadlock, which kills it): then
// it releases c.L and panics with the abort cause.  Abort broadcasts while
// holding c.L, so a waiter either sees the flag here or is woken by the
// broadcast — it can never sleep through an abort.  Whoever makes the
// awaited condition true calls Wake before signalling c.
func (r *Rank) Sleep(c *sync.Cond, on Wait) {
	m := r.m
	err := m.abortedErr()
	if err == nil {
		if err = m.waits.settle(r, blocked, on); err == nil {
			c.Wait()
			return
		}
	}
	c.L.Unlock()
	m.Abort(err) // the deadlock just found; a no-op on a machine already dead
	panic(m.abortedErr())
}

// Wake tells the deadlock detector that rank id, if it sleeps on on, is
// about to be signalled, and reports whether it does.  The caller holds
// the lock of the condition id sleeps on — the lock under which id's row
// turned blocked, so no other is needed to see that nobody sleeps.
func (r *Rank) Wake(id int, on Wait) bool {
	t := &r.m.waits
	if t.asleep.Load() == 0 {
		return false
	}
	t.mu.Lock()
	row := &t.rows[id]
	woke := row.state == blocked && row.on == on
	if woke {
		row.state = running
		t.running++
		t.asleep.Add(-1)
	}
	t.mu.Unlock()
	return woke
}

// Holding notes what the caller is about to move — an array name and an
// element count — for the deadlock report to print beside this rank's
// wait.  It lasts until the next call or collective.
func (r *Rank) Holding(array string, elems int) { r.held, r.heldN = array, elems }

// CheckLimits panics with the abort cause if the machine is dead, and
// trips the virtual-time limit when this rank's clock has passed it.
// Called from every clock-advancing operation, so an over-limit run
// aborts deterministically: virtual clocks only grow, hence a run aborts
// iff its makespan would exceed the limit.
func (r *Rank) CheckLimits() {
	m := r.m
	if err := m.abortedErr(); err != nil {
		panic(err)
	}
	if m.cfg.TimeLimit > 0 && r.clock > m.cfg.TimeLimit {
		m.Abort(ErrTimeLimit)
		panic(ErrTimeLimit)
	}
}

// mailbox returns dst's mailbox, for a message from src.
func (m *Machine) mailbox(src, dst int) *mailbox {
	if min(src, dst) < 0 || max(src, dst) >= len(m.boxes) {
		panic(fmt.Sprintf("mpsim: message %d -> %d names an invalid rank", src, dst))
	}
	return &m.boxes[dst]
}

// Procs returns the machine size.
func (r *Rank) Procs() int { return r.m.cfg.Procs }

// Time returns the rank's current virtual clock (seconds).
func (r *Rank) Time() float64 { return r.clock }

// Collectives returns how many barriers and reductions the rank has
// completed.
func (r *Rank) Collectives() int64 { return r.syncs }

// Spend advances the clock by cost seconds of the given kind of work.
func (r *Rank) Spend(kind EventKind, cost float64, peer, bytes, tag int, label string) {
	r.emit(Event{Kind: kind, Start: r.clock, End: r.clock + cost, Peer: peer, Bytes: bytes, Tag: tag, Label: label})
	r.clock += cost
}

// idleUntil advances the clock to at, if that is later, as idle time.
func (r *Rank) idleUntil(kind EventKind, at float64, peer, bytes, tag int, label string) {
	if at > r.clock {
		r.emit(Event{Kind: kind, Start: r.clock, End: at, Peer: peer, Bytes: bytes, Tag: tag, Label: label})
		r.idle += at - r.clock
		r.clock = at
	}
}

// Compute advances the clock by flops floating-point operations.
func (r *Rank) Compute(flops float64) { r.ComputeLabeled(flops, "") }

// ComputeLabeled is Compute with a phase label recorded in the trace.
func (r *Rank) ComputeLabeled(flops float64, label string) {
	if flops <= 0 {
		return
	}
	r.Spend(EvCompute, flops*r.m.cfg.FlopTime, -1, 0, 0, label)
	r.flops += flops
	r.CheckLimits()
}

// PaySend charges the sender-side cost of one message to dst — overhead
// plus bytes over the wire — counts it, and returns the virtual time its
// last byte reaches dst.
func (r *Rank) PaySend(dst, tag, bytes int) float64 {
	r.Spend(EvSend, r.m.cfg.SendOverhead+float64(bytes)*r.m.cfg.GapPerByte, dst, bytes, tag, "")
	r.sent++
	r.sentB += int64(bytes)
	return r.clock + r.m.cfg.Latency
}

// Post queues msg for rank dst under the tag and returns at once.
func (r *Rank) Post(dst, tag int, msg Message) {
	mb := r.m.mailbox(r.ID, dst)
	mb.mu.Lock()
	r.deliver(mb, dst, tag, msg)
	mb.mu.Unlock()
}

// deliver queues msg on dst's mailbox, whose lock the caller holds, and
// signals dst only if it sleeps on exactly this sender and tag.
func (r *Rank) deliver(mb *mailbox, dst, tag int, msg Message) {
	mb.push(letter{src: r.ID, tag: tag, Message: msg})
	if r.Wake(dst, Wait{Src: r.ID, Tag: tag}) {
		mb.cond.Signal()
	}
}

// Take blocks until rank src has posted under the tag, then advances the
// clock to the message's availability (idle time is recorded).  Of the
// messages src posted under the tag, it takes the first.
func (r *Rank) Take(src, tag int) Message {
	mb := r.m.mailbox(src, r.ID)
	r.CheckLimits()
	mb.mu.Lock()
	msg, ok := mb.take(src, tag)
	for !ok {
		r.Sleep(&mb.cond, Wait{Src: src, Tag: tag})
		msg, ok = mb.take(src, tag)
	}
	mb.mu.Unlock()
	r.idleUntil(EvRecvWait, msg.At, src, 8*len(msg.Data), tag, "")
	return msg
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
	r.CheckLimits()
	at := r.PaySend(dst, tag, 8*len(data))
	mb := r.m.mailbox(r.ID, dst)
	mb.mu.Lock()
	cp := mb.buf(len(data))
	copy(cp, data)
	r.deliver(mb, dst, tag, Message{Data: cp, At: at})
	mb.mu.Unlock()
}

// Recv blocks until a message from src with the tag arrives, advancing
// the virtual clock to the arrival time (idle time is recorded).
//
// The returned slice is owned by the caller.  A caller that has fully
// consumed it may hand it back with Recycle so later Sends to this rank
// copy into it instead of allocating.
func (r *Rank) Recv(src, tag int) []float64 {
	msg := r.Take(src, tag)
	r.Spend(EvRecvCopy, r.m.cfg.RecvOverhead, src, 8*len(msg.Data), tag, "")
	r.recvd++
	r.CheckLimits()
	return msg.Data
}

// Recycle hands a buffer obtained from Recv back to this rank's mailbox.
// The caller must not touch buf afterwards: the next Send to this rank
// may copy its payload into it.  Recycling is optional — unreturned
// buffers are simply garbage-collected — and never changes results: a
// reused buffer is resliced to the exact payload length and fully
// overwritten.
func (r *Rank) Recycle(buf []float64) {
	if buf == nil {
		return
	}
	mb := &r.m.boxes[r.ID]
	mb.mu.Lock()
	mb.recycle(buf)
	mb.mu.Unlock()
}

// Barrier synchronizes all ranks: every clock advances to the latest
// arrival plus the machine's barrier cost.  It is a reduction whose value
// nobody reads, on a meeting point of its own.
func (r *Rank) Barrier() { r.collect(&r.m.barrier, '>', 0, "") }

// AllReduce combines one value from every rank under op: '+' sum,
// '*' product, '<' min, '>' max.  All ranks receive the result and
// advance to the latest arrival plus the machine's reduction cost.
//
// Contributions are folded in rank order 0..P-1 regardless of which
// goroutine arrives last, so floating-point reductions are bit-exact
// run to run and across fronts.
func (r *Rank) AllReduce(op byte, v float64) float64 {
	return r.collect(&r.m.reduce, op, v, "allreduce")
}

func (r *Rank) collect(c *collective, op byte, v float64, label string) float64 {
	r.CheckLimits()
	r.Holding("", 0)
	c.mu.Lock()
	gen := c.gen
	if c.count == 0 {
		c.max = 0
	}
	c.vals[r.ID] = v
	if r.clock > c.max {
		c.max = r.clock
	}
	c.count++
	if c.count == len(c.vals) {
		c.count = 0
		c.result = fold(op, c.vals)
		c.target = c.max
		for _, t := range c.cost {
			c.target += t
		}
		c.gen++
		for id := range c.vals {
			r.Wake(id, c.on)
		}
		c.cond.Broadcast()
	} else {
		for gen == c.gen {
			r.Sleep(&c.cond, c.on)
		}
	}
	result, target := c.result, c.target
	c.mu.Unlock()
	r.syncs++
	r.idleUntil(EvBarrier, target, -1, 0, 0, label)
	return result
}

func fold(op byte, vals []float64) float64 {
	acc := vals[0]
	for _, x := range vals[1:] {
		switch op {
		case '+':
			acc += x
		case '*':
			acc *= x
		case '<':
			acc = math.Min(acc, x)
		case '>':
			acc = math.Max(acc, x)
		default:
			panic(fmt.Sprintf("mpsim: unknown reduction op %q", op))
		}
	}
	return acc
}

func (r *Rank) emit(e Event) {
	if !r.m.cfg.Trace {
		return
	}
	e.Rank = r.ID
	r.events = append(r.events, e)
}
