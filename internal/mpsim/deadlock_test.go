package mpsim_test

// The deadlock detector, on every front: it never fires on a program that
// finishes, whatever the goroutine schedule, and on one that cannot finish
// it reports the one quiescent state the program has — the same text on
// every run.

import (
	"errors"
	"runtime"
	"testing"

	"dhpf/internal/mpsim"
)

const detectorRuns = 200

// eachSchedule runs body detectorRuns times on one OS thread and on eight.
func eachSchedule(t *testing.T, body func()) {
	for _, procs := range []int{1, 8} {
		old := runtime.GOMAXPROCS(procs)
		for i := 0; i < detectorRuns; i++ {
			body()
		}
		runtime.GOMAXPROCS(old)
		if t.Failed() {
			t.Fatalf("failed at GOMAXPROCS %d", procs)
		}
	}
}

// traffic finishes: two ring shifts, a neighbour ping-pong, a barrier and
// a reduction per round, then a pipeline down the ranks — every wait kind,
// with wake-ups that land on ranks which have not run yet.
func traffic(m member) {
	drain := func() {
		if m.drain != nil {
			m.drain()
		}
	}
	p, id := m.Procs(), m.ID
	for round := 0; round < 3; round++ {
		m.send((id+1)%p, round)
		m.recv((id+p-1)%p, round)
		if peer := id ^ 1; peer < p {
			if id < peer {
				m.send(peer, 100+round)
				m.recv(peer, 200+round)
			} else {
				m.recv(peer, 100+round)
				m.send(peer, 200+round)
			}
		}
		drain()
		m.Barrier()
		if got, want := m.AllReduce('+', float64(id)), float64(p*(p-1)/2); got != want {
			panic(errors.New("allreduce folded the wrong sum"))
		}
	}
	if id > 0 {
		m.recv(id-1, 300)
	}
	m.Compute(10)
	if id < p-1 {
		m.send(id+1, 300)
	}
	drain()
}

func TestNoDeadlockOnProgramsThatFinish(t *testing.T) {
	for _, f := range fronts {
		for _, procs := range []int{2, 5, 16} {
			eachSchedule(t, func() {
				for id, err := range runFront(f, mpsim.SP2Config(procs), traffic) {
					if err != nil {
						t.Errorf("%s, %d ranks: rank %d: %v", f.name, procs, id, err)
					}
				}
			})
		}
	}
}

// The hand-built deadlocks: traffic first, so the ranks reach the hang in
// a different order every run, then a wait nobody will ever satisfy.
var deadlocks = []struct {
	name string
	shm  bool // needs Drain
	hang func(m member)
	want string
}{
	{"recv cycle", false, func(m member) { m.recv((m.ID+1)%m.Procs(), 400) },
		"deadlock: rank 0 <- rank 1 tag 400; rank 1 <- rank 2 tag 400; rank 2 <- rank 3 tag 400; rank 3 <- rank 0 tag 400"},
	{"recv from a finished rank", false, func(m member) {
		if m.ID == 3 {
			m.recv(0, 401)
		}
	}, "deadlock: rank 0 finished; rank 1 finished; rank 2 finished; rank 3 <- rank 0 tag 401"},
	{"barrier minus one", false, func(m member) {
		if m.ID != 2 {
			m.Barrier()
		}
	}, "deadlock: rank 0 in barrier; rank 1 in barrier; rank 2 finished; rank 3 in barrier"},
	{"reduce against barrier", false, func(m member) {
		if m.ID%2 == 0 {
			m.AllReduce('+', 1)
		} else {
			m.Barrier()
		}
	}, "deadlock: rank 0 in allreduce; rank 1 in barrier; rank 2 in allreduce; rank 3 in barrier"},
	{"drain never acknowledged", true, func(m member) {
		if m.ID == 1 {
			m.send(0, 402)
			m.Holding("strip", 8)
			m.drain()
		}
	}, "deadlock: rank 0 finished; rank 1 in drain strip[8]; rank 2 finished; rank 3 finished"},
}

func TestDeadlockTextIsTheSameEveryRun(t *testing.T) {
	for _, f := range fronts {
		for _, d := range deadlocks {
			if d.shm && f.name == "mp" {
				continue
			}
			t.Run(f.name+"/"+d.name, func(t *testing.T) {
				eachSchedule(t, func() {
					errs := runFront(f, mpsim.SP2Config(4), func(m member) {
						traffic(m)
						d.hang(m)
					})
					hung := 0
					for id, err := range errs {
						if err == nil {
							continue // a rank that returned
						}
						hung++
						if !errors.Is(err, mpsim.ErrDeadlock) || !errors.Is(err, mpsim.ErrAborted) || err.Error() != d.want {
							t.Errorf("rank %d: %v\nwant: %s", id, err, d.want)
						}
					}
					if hung == 0 {
						t.Error("no rank reported the deadlock")
					}
				})
			})
		}
	}
}

// TestTimeLimitBeatsDeadlock: ranks 1 and 2 wait on each other for good;
// rank 0 would join them, but crosses the virtual-time limit on its way
// there.  It trips the limit before it can settle, so the run is never
// quiescent and the limit is the error every time; without the limit the
// same program deadlocks.
func TestTimeLimitBeatsDeadlock(t *testing.T) {
	body := func(m member) {
		traffic(m)
		if m.ID == 0 {
			m.Compute(1e6)
		}
		m.recv((m.ID+1)%3, 400)
	}
	for _, f := range fronts {
		cfg := mpsim.SP2Config(3)
		for _, want := range []error{mpsim.ErrDeadlock, mpsim.ErrTimeLimit} {
			eachSchedule(t, func() {
				for id, err := range runFront(f, cfg, body) {
					if !errors.Is(err, want) {
						t.Errorf("%s, limit %g: rank %d: %v, want %v", f.name, cfg.TimeLimit, id, err, want)
					}
				}
			})
			cfg.TimeLimit = 5e-3 // traffic ends near 1 ms, rank 0's compute near 13 ms
		}
	}
}
