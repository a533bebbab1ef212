package mpsim_test

// The abort protocol, pinned once for every front on the core: whatever
// kills the machine — the virtual-time limit, a deadlock, a rank's own
// Abort — every rank blocked in a machine operation wakes, and every rank
// sees the same typed error.

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

type front struct {
	name string
	run  func(cfg mpsim.Config, body func(m member))
}

func shmFront(name string, groups func(procs int) []int) front {
	return front{name, func(cfg mpsim.Config, body func(m member)) {
		shm.Run(shm.FromMachine(cfg, groups(cfg.Procs)), func(t *shm.Thread) {
			body(member{
				Rank: t.Rank,
				send: func(dst, tag int) { t.Publish(dst, tag, 8, nil) },
				recv: func(src, tag int) {
					t.Await(src, tag)
					t.Ack(src, 8)
				},
				drain: t.Drain,
			})
		})
	}}
}

var fronts = []front{
	{"mp", func(cfg mpsim.Config, body func(m member)) {
		mpsim.Run(cfg, func(r *mpsim.Rank) {
			body(member{
				Rank: r,
				send: func(dst, tag int) { r.Send(dst, tag, []float64{1}) },
				recv: func(src, tag int) { r.Recv(src, tag) },
			})
		})
	}},
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
