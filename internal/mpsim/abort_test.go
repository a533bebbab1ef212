package mpsim_test

// The abort protocol, pinned once for every front on the core: whatever
// kills the machine — the virtual-time limit, a deadlock, a rank's own
// Abort or its panic — every rank blocked in a machine operation wakes,
// and every rank sees the same cause.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"dhpf/internal/mpsim"
	"dhpf/internal/shm"
)

// member is one rank of either front: the core rank plus the front's
// buffered send, its blocking receive and, on the shared-memory fronts
// only, Drain.
type member struct {
	*mpsim.Rank
	send  func(dst, tag int)
	recv  func(src, tag int)
	drain func()
}

// front runs body on every rank of a new machine of one front: run
// through the package-level Run, machine through Machine.Run or Team.Run,
// returning whether the run left the machine idle and its error.
type front struct {
	name    string
	run     func(cfg mpsim.Config, body func(m member))
	machine func(cfg mpsim.Config, body func(m member)) (idle bool, err error)
}

func mpMember(r *mpsim.Rank) member {
	return member{
		Rank: r,
		send: func(dst, tag int) { r.Send(dst, tag, []float64{1}) },
		recv: func(src, tag int) { r.Recv(src, tag) },
	}
}

func shmMember(t *shm.Thread) member {
	return member{
		Rank: t.Rank,
		send: func(dst, tag int) { t.Publish(dst, tag, 8, nil) },
		recv: func(src, tag int) {
			t.Await(src, tag)
			t.Ack(src, 8)
		},
		drain: t.Drain,
	}
}

func shmFront(name string, groups func(procs int) []int) front {
	return front{name,
		func(cfg mpsim.Config, body func(m member)) {
			shm.Run(shm.FromMachine(cfg, groups(cfg.Procs)), func(t *shm.Thread) { body(shmMember(t)) })
		},
		func(cfg mpsim.Config, body func(m member)) (bool, error) {
			tm := shm.NewTeam(shm.FromMachine(cfg, groups(cfg.Procs)))
			_, _, err := tm.Run(func(t *shm.Thread) { body(shmMember(t)) })
			return tm.Idle(), err
		},
	}
}

var fronts = []front{
	{"mp",
		func(cfg mpsim.Config, body func(m member)) {
			mpsim.Run(cfg, func(r *mpsim.Rank) { body(mpMember(r)) })
		},
		func(cfg mpsim.Config, body func(m member)) (bool, error) {
			m := mpsim.NewMachine(cfg, mpsim.MessageCost(cfg))
			_, err := m.Run(func(r *mpsim.Rank) { body(mpMember(r)) })
			return m.Idle(), err
		},
	},
	shmFront("shm", func(int) []int { return nil }),
	shmFront("hybrid", func(procs int) []int { // 0 0 1 1 2 …
		g := make([]int, procs)
		for i := range g {
			g[i] = i / 2
		}
		return g
	}),
}

// runFront runs body on every rank of the front and returns what each
// rank panicked with (nil: it returned).
func runFront(f front, cfg mpsim.Config, body func(m member)) []error {
	errs := make([]error, cfg.Procs)
	f.run(cfg, func(m member) {
		defer func() {
			if rec := recover(); rec != nil {
				errs[m.ID], _ = rec.(error)
			}
		}()
		body(m)
	})
	return errs
}

// TestAbortWakesEveryBlockedRank: rank 0 kills the machine — or, in the
// Deadlock row, blocks like the rest — while rank 1 is blocked in
// Recv/Await, rank 2 in Barrier, rank 3 in AllReduce and — on the
// shared-memory fronts — rank 4 in Drain.  None of those operations can
// ever complete, so a rank the abort fails to wake hangs the test.
func TestAbortWakesEveryBlockedRank(t *testing.T) {
	died := fmt.Errorf("rank 0 died: %w", mpsim.ErrAborted)
	causes := []struct {
		name  string
		limit float64
		kill  func(r *mpsim.Rank)
		want  error
	}{
		{"TimeLimit", 10e-6, func(r *mpsim.Rank) { r.Compute(100) }, mpsim.ErrTimeLimit},
		{"Deadlock", 0, func(r *mpsim.Rank) { r.Recv(1, 8) }, mpsim.ErrDeadlock},
		{"Abort", 0, func(r *mpsim.Rank) { r.Abort(died) }, died},
	}
	for _, f := range fronts {
		for _, c := range causes {
			t.Run(f.name+"/"+c.name, func(t *testing.T) {
				cfg := mpsim.Config{Procs: 5, FlopTime: 1e-6, Latency: 1e-6, TimeLimit: c.limit}
				errs := runFront(f, cfg, func(m member) {
					switch m.ID {
					case 0:
						time.Sleep(5 * time.Millisecond) // let the peers block first
						c.kill(m.Rank)
					case 1:
						m.recv(0, 7)
					case 2:
						m.Barrier()
					case 3:
						m.AllReduce('+', 1)
					case 4:
						if m.drain == nil {
							m.recv(0, 7)
						} else {
							m.send(0, 9) // never acknowledged
							m.drain()
						}
					}
				})
				for id, err := range errs {
					if id == 0 && c.want == died {
						continue // the killer itself returns normally
					}
					if !errors.Is(err, c.want) || !errors.Is(err, mpsim.ErrAborted) || fmt.Sprint(err) != fmt.Sprint(errs[1]) {
						t.Errorf("rank %d: error %v, want rank 1's %v, a %v wrapping ErrAborted", id, err, errs[1], c.want)
					}
				}
			})
		}
	}
}

// TestTimeLimitIsDeterministic: on every front a run aborts iff its
// makespan would exceed the limit, however the goroutines interleave.
func TestTimeLimitIsDeterministic(t *testing.T) {
	for _, f := range fronts {
		t.Run(f.name, func(t *testing.T) {
			for _, c := range []struct {
				flops float64
				want  error
			}{{40, nil}, {100, mpsim.ErrTimeLimit}} {
				for i := 0; i < 3; i++ {
					cfg := mpsim.Config{Procs: 5, FlopTime: 1e-6, Latency: 1e-6, TimeLimit: 50e-6}
					errs := runFront(f, cfg, func(m member) {
						for j := 0.0; j < c.flops; j++ {
							m.Compute(1)
						}
						m.Barrier()
					})
					for id, err := range errs {
						if err != c.want {
							t.Fatalf("%v flops, run %d, rank %d: error %v, want %v", c.flops, i, id, err, c.want)
						}
					}
				}
			}
		})
	}
}

// TestRankPanicIsTheMachines: a rank body that panics — with a string, or
// with an error that does not wrap ErrAborted — kills its machine on every
// front.  Rank 0 panics once rank 1 is blocked receiving from it, rank 2
// in Barrier and rank 3 in AllReduce; they unwind with its panic, Run
// returns that panic as a *RankPanic naming rank 0, the machine is not
// idle, and the package-level Run re-panics it on the caller's goroutine.
func TestRankPanicIsTheMachines(t *testing.T) {
	for _, f := range fronts {
		for _, v := range []any{"boom", errors.New("boom")} {
			t.Run(fmt.Sprintf("%s/%T", f.name, v), func(t *testing.T) {
				cfg := mpsim.Config{Procs: 4, FlopTime: 1e-6, Latency: 1e-6}
				var unwound [4]any // what each peer unwound with
				body := func(m member) {
					if m.ID == 0 {
						time.Sleep(5 * time.Millisecond) // let the peers block first
						panic(v)
					}
					defer func() { unwound[m.ID] = recover() }()
					switch m.ID {
					case 1:
						m.recv(0, 7)
					case 2:
						m.Barrier()
					case 3:
						m.AllReduce('+', 1)
					}
				}
				idle, err := f.machine(cfg, body)
				p, ok := err.(*mpsim.RankPanic)
				if !ok || p.Rank != 0 || p.Value != v || err.Error() != "rank 0: boom" || errors.Is(err, mpsim.ErrAborted) {
					t.Fatalf("Run returned %#v, want a RankPanic of rank 0 with %v, not wrapping ErrAborted", err, v)
				}
				for id := 1; id < 4; id++ {
					if unwound[id] != any(p) {
						t.Errorf("rank %d unwound with %v, want rank 0's panic", id, unwound[id])
					}
				}
				if idle {
					t.Error("the machine is idle after a rank panicked")
				}
				func() {
					defer func() {
						if p, ok := recover().(*mpsim.RankPanic); !ok || p.Rank != 0 || p.Value != v {
							t.Errorf("the package-level Run panicked with %v, want rank 0's RankPanic", p)
						}
					}()
					f.run(cfg, body)
					t.Error("the package-level Run returned")
				}()
			})
		}
	}
}
