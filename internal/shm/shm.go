// Package shm is a deterministic virtual-time shared-memory SPMD team:
// the second execution substrate beside the message-passing machine
// (internal/mpsim).  A team runs one goroutine per rank of the processor
// grid, but the ranks share the address space: a communication event is
// not a packed message, it is a synchronization edge after which the
// consumer pulls the producer's data directly, array to array.
//
// Tokens travel through the message machine's own mailboxes (exact
// (src, tag) match, FIFO per (src, tag)), so any program whose sends and
// receives match on the message machine matches here too, strip for
// strip, and the pulled values are the values the message would have
// carried:
//
//   - Publish replaces Send: the producer posts a token carrying its
//     virtual clock and a reference to the source storage, then keeps
//     computing (buffered-send semantics);
//   - Await replaces Recv: the consumer blocks for the token, advances
//     its clock to the data's availability, and pulls straight from the
//     producer's array (the channel hand-off is the happens-before edge
//     that makes the direct read race-free);
//   - Ack + Drain replace nothing in the message model — they are the
//     shared-memory obligation: a producer must not overwrite a region
//     a consumer may still be reading, so before leaving a
//     communication phase it drains until every token it published has
//     been acknowledged.  Drain costs no virtual time (the cost model
//     treats the pull as completing at availability), it only orders
//     memory.
//
// Virtual time uses a memory-bandwidth term instead of message latency:
// an intra-node pull of B bytes costs B·MemGapPerByte on the consumer's
// clock, with no per-message overhead or wire latency.  Hybrid layouts
// ("ranks across a grid dimension × threads within a rank") assign each
// thread an outer group; pulls that cross groups are priced like
// messages, with the LogGP constants the outer message level would pay.
// Numeric results never depend on the cost model — clocks only decide
// how shm candidates rank against message-passing ones in the tuner.
//
// The team is a front on the one machine core (internal/mpsim): rank
// goroutines, clocks, the mailboxes, barriers, rank-order
// reductions, trace capture and the abort protocol are the core's, so
// reductions are bit-identical across substrates and aborts (virtual-time
// limit, deadlock, Thread.Abort) panic with the mpsim error
// values whatever the backend.  This package adds the rendezvous
// operations, the group map, the outstanding-acknowledgement wait and the
// cost model.  Like the core machine, a Team runs more than once: its
// threads, mailboxes and acknowledgement counters outlive a run, and
// each run starts them at zero.
package shm

import (
	"math"
	"sync"

	"dhpf/internal/mpsim"
)

// MemSpeedup is the modelled advantage of a shared-memory pull over the
// message network's bandwidth: one byte through the memory system costs
// GapPerByte/MemSpeedup seconds.
const MemSpeedup = 12.0

// SyncSpeedup is the modelled advantage of a shared-memory barrier or
// reduction step over one network latency: BarrierLatency =
// Latency/SyncSpeedup.
const SyncSpeedup = 20.0

// Config is a machine configuration — one thread per rank, the machine's
// flop cost, limits and trace flag, its LogGP terms for cross-group pulls
// — plus the shared-memory cost model.
type Config struct {
	mpsim.Config
	// Groups assigns each thread an outer group for hybrid layouts;
	// pulls within a group cost memory bandwidth, pulls across groups
	// cost the message-level LogGP terms.  nil = one group (pure shm).
	Groups []int
	// MemGapPerByte is the memory-system inverse bandwidth an intra-group
	// pull pays per byte (seconds).
	MemGapPerByte float64
	// BarrierLatency is the cost of one log-tree step of a barrier or
	// reduction within a group (seconds).
	BarrierLatency float64
}

// FromMachine derives a shared-memory cost model from a message-machine
// configuration: memory bandwidth and sync latency scaled by the
// documented MemSpeedup/SyncSpeedup constants, everything else the
// machine's own.
func FromMachine(cfg mpsim.Config, groups []int) Config {
	return Config{
		Config:         cfg,
		Groups:         groups,
		MemGapPerByte:  cfg.GapPerByte / MemSpeedup,
		BarrierLatency: cfg.Latency / SyncSpeedup,
	}
}

// Team is a shared-memory team: the core machine, the acknowledgement
// counters and one Thread per rank.  It runs more than once: every run
// starts its clocks, counters and acknowledgements at zero, Configure
// rebinds the cost model and limits between runs, and the mailboxes and
// threads stay.
type Team struct {
	m      *mpsim.Machine
	cfg    Config
	groups int // the group count of cfg.Groups
	// ackMu guards pending: published-not-yet-acknowledged token counts
	// per producer thread.  Drain waits for its own count to reach zero.
	ackMu   sync.Mutex
	ackCond *sync.Cond
	pending []int
	threads []Thread
}

// Thread is one team member, owned by its goroutine: the core rank
// (Compute, Barrier, AllReduce, Abort, …) plus the rendezvous operations.
type Thread struct {
	*mpsim.Rank
	tm      *Team
	pulls   int64
	pulledB int64
}

// Result is what a shared-memory run measures beyond the core machine's
// result.
type Result struct {
	Threads int
	Groups  int
	// Pulls and PulledBytes count direct memory pulls, charged to the
	// consuming thread.
	Pulls       []int64
	PulledBytes []int64
	// Barriers counts team-wide synchronizations (barriers and
	// reductions), summed over threads.
	Barriers int64
}

// TotalPulls sums pulls by all threads.
func (r *Result) TotalPulls() int64 {
	var n int64
	for _, p := range r.Pulls {
		n += p
	}
	return n
}

// TotalPulledBytes sums pulled bytes by all threads.
func (r *Result) TotalPulledBytes() int64 {
	var n int64
	for _, p := range r.PulledBytes {
		n += p
	}
	return n
}

// Run executes body on every thread of a new team concurrently.  The
// machine result carries clocks, idle time, flops and trace events as on
// the message machine; its message counters hold the cross-group
// publishes of a hybrid layout (all zero for pure shm).  Aborts are the
// core's (mpsim.Run): every blocked thread wakes and panics with the
// cause, the team recovers what body does not, and a thread body's own
// panic is re-panicked, as a *mpsim.RankPanic, on the caller's
// goroutine.  A caller that wants the abort cause as an error runs a
// Team (Team.Run).
func Run(cfg Config, body func(t *Thread)) (*mpsim.Result, *Result) {
	mres, res, err := NewTeam(cfg).Run(body)
	if p, ok := err.(*mpsim.RankPanic); ok {
		panic(p)
	}
	return mres, res
}

// NewTeam builds a team of cfg.Procs threads configured by cfg.
func NewTeam(cfg Config) *Team {
	tm := &Team{
		m:       mpsim.NewMachine(cfg.Config, mpsim.SyncCost{}),
		pending: make([]int, cfg.Procs),
		threads: make([]Thread, cfg.Procs),
	}
	tm.ackCond = tm.m.NewCond(&tm.ackMu)
	for i := range tm.threads {
		tm.threads[i] = Thread{Rank: tm.m.Rank(i), tm: tm}
	}
	tm.Configure(cfg)
	return tm
}

// Configure sets the configuration of the team's next runs; the thread
// count is the team's for life.
func (tm *Team) Configure(cfg Config) {
	if cfg.Groups != nil && len(cfg.Groups) != cfg.Procs {
		panic("shm: Groups must have one entry per thread")
	}
	// A barrier or reduction completes a log-tree of intra-group steps at
	// BarrierLatency plus cross-group steps at the message latency; a
	// reduction also moves 8 bytes per step at each level's bandwidth.
	groups, groupSteps, outerSteps := treeDepths(cfg)
	step := groupSteps*cfg.BarrierLatency + outerSteps*cfg.Latency
	tm.m.Configure(cfg.Config, mpsim.SyncCost{
		Barrier: step,
		Reduce:  [3]float64{step, groupSteps * 8 * cfg.MemGapPerByte, outerSteps * 8 * cfg.GapPerByte},
	})
	tm.cfg, tm.groups = cfg, groups
}

// Thread returns thread id, the same Thread in every run of the team.
func (tm *Team) Thread(id int) *Thread { return &tm.threads[id] }

// Idle reports whether the team's last run ended cleanly: no abort, and
// no token left unawaited.
func (tm *Team) Idle() bool { return tm.m.Idle() }

// Run executes body on every thread concurrently (see the package-level
// Run).  The error is the abort cause, as mpsim.Machine.Run returns it.
// The team may run again once Run has returned.
func (tm *Team) Run(body func(t *Thread)) (*mpsim.Result, *Result, error) {
	clear(tm.pending)
	for i := range tm.threads {
		tm.threads[i].pulls, tm.threads[i].pulledB = 0, 0
	}
	mres, err := tm.m.Run(func(r *mpsim.Rank) { body(&tm.threads[r.ID]) })
	p := len(tm.threads)
	counts := make([]int64, 2*p)
	res := &Result{Threads: p, Groups: tm.groups, Pulls: counts[:p:p], PulledBytes: counts[p:]}
	for i := range tm.threads {
		t := &tm.threads[i]
		res.Pulls[i] = t.pulls
		res.PulledBytes[i] = t.pulledB
		res.Barriers += t.Collectives()
	}
	return mres, res, err
}

// treeDepths returns the group count and the log-tree depths of the
// intra-group and cross-group levels of a team-wide synchronization.
func treeDepths(cfg Config) (groups int, group, outer float64) {
	if cfg.Groups == nil {
		return 1, logSteps(cfg.Procs), 0
	}
	sizes := map[int]int{}
	for _, g := range cfg.Groups {
		sizes[g]++
		groups = max(groups, g+1)
	}
	maxSize := 1
	for _, n := range sizes {
		maxSize = max(maxSize, n)
	}
	return groups, logSteps(maxSize), logSteps(len(sizes))
}

func logSteps(n int) float64 {
	if n <= 1 {
		return 0
	}
	return math.Ceil(math.Log2(float64(n)))
}

// crosses reports whether a transfer between this thread and peer
// crosses outer groups (never, for pure shm).
func (t *Thread) crosses(peer int) bool {
	g := t.tm.cfg.Groups
	return g != nil && g[t.ID] != g[peer]
}

// Publish posts a rendezvous token to thread dst: the consumer's Await
// will find src (typically the producer's array storage) available at
// the producer's current clock.  Non-blocking, like a buffered send; a
// cross-group publish additionally pays the message-level send cost on
// the producer's clock and counts as outer traffic.
func (t *Thread) Publish(dst, tag, bytes int, src any) {
	t.CheckLimits()
	avail := t.Time()
	if t.crosses(dst) {
		avail = t.PaySend(dst, tag, bytes)
	}
	t.tm.ackMu.Lock()
	t.tm.pending[t.ID]++
	t.tm.ackMu.Unlock()
	t.Post(dst, tag, mpsim.Message{Ref: src, At: avail})
}

// Await blocks until thread src publishes under the tag, advances this
// thread's clock to the data's availability (idle time recorded), and
// returns the published source reference.  The caller pulls from it and
// then calls Ack.
func (t *Thread) Await(src, tag int) any { return t.Take(src, tag).Ref }

// Ack completes a pull started by Await: it charges the consumer's
// clock the pull cost — bytes·MemGapPerByte within a group, the
// message-level receive overhead across groups — and releases the
// producer's Drain.  Call it after the data has actually been copied.
func (t *Thread) Ack(src, bytes int) {
	cost := float64(bytes) * t.tm.cfg.MemGapPerByte
	if t.crosses(src) {
		cost = t.tm.cfg.RecvOverhead
	}
	t.Spend(mpsim.EvRecvCopy, cost, src, bytes, 0, "")
	t.pulls++
	t.pulledB += int64(bytes)
	tm := t.tm
	tm.ackMu.Lock()
	tm.pending[src]--
	if tm.pending[src] == 0 {
		t.Wake(src, draining)
		tm.ackCond.Broadcast()
	}
	tm.ackMu.Unlock()
	t.CheckLimits()
}

// draining is what a thread asleep in Drain waits on.
var draining = mpsim.Wait{On: "drain"}

// Drain blocks until every token this thread published has been
// acknowledged: the shared-memory write-after-read obligation.  A
// producer leaving a communication phase must drain before it may
// overwrite data a consumer could still be pulling.  Costs no virtual
// time — it orders memory, it does not model a wait the message machine
// would have had.
func (t *Thread) Drain() {
	tm := t.tm
	tm.ackMu.Lock()
	for tm.pending[t.ID] > 0 {
		t.Sleep(tm.ackCond, draining)
	}
	tm.ackMu.Unlock()
	t.CheckLimits()
}
