package mpsim

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func testCfg(p int) Config {
	return Config{
		Procs:        p,
		SendOverhead: 1e-6,
		RecvOverhead: 1e-6,
		Latency:      10e-6,
		GapPerByte:   1e-8,
		FlopTime:     1e-8,
	}
}

// TestPinOSThreadsInvisible runs the same exchange with and without
// PinOSThreads and requires bit-identical virtual clocks, counters, and
// payloads: pinning maps goroutines onto OS threads but must never
// change what the machine computes.
func TestPinOSThreadsInvisible(t *testing.T) {
	run := func(pin bool) (*Result, float64) {
		cfg := testCfg(4)
		cfg.PinOSThreads = pin
		var got float64
		var mu sync.Mutex
		res := Run(cfg, func(r *Rank) {
			next, prev := (r.ID+1)%4, (r.ID+3)%4
			acc := float64(r.ID)
			for step := 0; step < 8; step++ {
				r.Send(next, step, []float64{acc})
				in := r.Recv(prev, step)
				acc += in[0] * 0.5
				r.Compute(100)
				r.Recycle(in)
			}
			r.Barrier()
			if r.ID == 2 {
				mu.Lock()
				got = acc
				mu.Unlock()
			}
		})
		return res, got
	}
	plain, accPlain := run(false)
	pinned, accPinned := run(true)
	if math.Float64bits(accPlain) != math.Float64bits(accPinned) {
		t.Fatalf("accumulated value differs under pinning: %v vs %v", accPlain, accPinned)
	}
	for rk := 0; rk < 4; rk++ {
		if math.Float64bits(plain.RankTime[rk]) != math.Float64bits(pinned.RankTime[rk]) {
			t.Fatalf("rank %d clock differs: %v vs %v", rk, plain.RankTime[rk], pinned.RankTime[rk])
		}
		if plain.SentMsgs[rk] != pinned.SentMsgs[rk] || plain.SentBytes[rk] != pinned.SentBytes[rk] {
			t.Fatalf("rank %d counters differ under pinning", rk)
		}
	}
}

func TestComputeAdvancesClock(t *testing.T) {
	res := Run(testCfg(1), func(r *Rank) {
		r.Compute(1e6)
	})
	want := 1e6 * 1e-8
	if math.Abs(res.Time-want) > 1e-12 {
		t.Fatalf("Time = %g, want %g", res.Time, want)
	}
	if res.RankFlops[0] != 1e6 {
		t.Fatalf("flops = %g", res.RankFlops[0])
	}
}

func TestSendRecvTimestamps(t *testing.T) {
	cfg := testCfg(2)
	res := Run(cfg, func(r *Rank) {
		switch r.ID {
		case 0:
			r.Compute(1000) // 10 µs
			r.Send(1, 7, []float64{1, 2, 3})
		case 1:
			data := r.Recv(0, 7)
			if len(data) != 3 || data[2] != 3 {
				t.Errorf("rank1 got %v", data)
			}
		}
	})
	// Sender: 10µs compute + send cost (1µs + 24B*10ns = 1.24µs) = 11.24µs.
	// Arrival = 11.24 + 10 (latency) = 21.24µs; receiver adds 1µs overhead.
	want := (10 + 1 + 24*0.01 + 10 + 1) * 1e-6
	if math.Abs(res.Time-want) > 1e-9 {
		t.Fatalf("Time = %g, want %g", res.Time, want)
	}
	if res.RankIdle[1] <= 0 {
		t.Error("receiver recorded no idle time")
	}
	if res.TotalMessages() != 1 || res.TotalBytes() != 24 {
		t.Errorf("msgs=%d bytes=%d", res.TotalMessages(), res.TotalBytes())
	}
}

func TestMessageDataIsolated(t *testing.T) {
	// The receiver must get a copy: sender mutating its buffer after
	// Send must not affect the delivered data.
	Run(testCfg(2), func(r *Rank) {
		if r.ID == 0 {
			buf := []float64{42}
			r.Send(1, 0, buf)
			buf[0] = -1
		} else {
			got := r.Recv(0, 0)
			if got[0] != 42 {
				t.Errorf("message data aliased: %v", got)
			}
		}
	})
}

func TestPipelineSerialization(t *testing.T) {
	// A 4-stage pipeline: each rank waits for its predecessor, computes,
	// forwards.  Total time must be ≈ sum of stages, not max.
	const p = 4
	const flops = 1e5 // 1 ms each
	res := Run(testCfg(p), func(r *Rank) {
		if r.ID > 0 {
			r.Recv(r.ID-1, 1)
		}
		r.Compute(flops)
		if r.ID < p-1 {
			r.Send(r.ID+1, 1, []float64{1})
		}
	})
	serial := float64(p) * flops * 1e-8
	if res.Time < serial {
		t.Fatalf("pipeline time %g < serial bound %g", res.Time, serial)
	}
	if res.Time > serial*1.1 {
		t.Fatalf("pipeline time %g too far above serial bound %g", res.Time, serial)
	}
	// Last rank idles roughly 3 stages.
	if res.RankIdle[p-1] < 2.9*flops*1e-8 {
		t.Fatalf("last rank idle = %g", res.RankIdle[p-1])
	}
}

func TestParallelIndependentWork(t *testing.T) {
	// Independent work on 8 ranks: makespan ≈ single rank's time.
	const flops = 1e5
	res := Run(testCfg(8), func(r *Rank) {
		r.Compute(flops)
	})
	want := flops * 1e-8
	if math.Abs(res.Time-want) > 1e-12 {
		t.Fatalf("Time = %g, want %g", res.Time, want)
	}
}

func TestBarrierAlignsClocks(t *testing.T) {
	res := Run(testCfg(4), func(r *Rank) {
		r.Compute(float64(r.ID) * 1e5) // staggered
		r.Barrier()
		if r.Time() < 3*1e5*1e-8 {
			t.Errorf("rank %d clock %g below barrier max", r.ID, r.Time())
		}
	})
	_ = res
}

func TestBarrierTwiceNoCarryover(t *testing.T) {
	res := Run(testCfg(2), func(r *Rank) {
		r.Compute(1e6)
		r.Barrier()
		first := r.Time()
		r.Barrier()
		// Second barrier should cost only the log-tree latency, not
		// re-apply the first barrier's max.
		if r.Time()-first > 2*10e-6+1e-9 {
			t.Errorf("second barrier cost %g", r.Time()-first)
		}
	})
	_ = res
}

func TestAllReduceSum(t *testing.T) {
	Run(testCfg(4), func(r *Rank) {
		got := r.AllReduceSum(float64(r.ID + 1))
		if got != 10 {
			t.Errorf("rank %d sum = %g", r.ID, got)
		}
	})
}

func TestAllReduceRepeated(t *testing.T) {
	Run(testCfg(3), func(r *Rank) {
		for k := 0; k < 5; k++ {
			got := r.AllReduceSum(1)
			if got != 3 {
				t.Errorf("round %d sum = %g", k, got)
			}
		}
	})
}

func TestIrecvWait(t *testing.T) {
	Run(testCfg(2), func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 3, []float64{9})
		} else {
			req := r.Irecv(0, 3)
			r.Compute(100) // overlap
			data := req.Wait()
			if data[0] != 9 {
				t.Errorf("Irecv data = %v", data)
			}
			// Wait twice is idempotent.
			if req.Wait()[0] != 9 {
				t.Error("second Wait failed")
			}
		}
	})
}

func TestTagMatching(t *testing.T) {
	// Messages with different tags must not cross-match even when sent
	// out of receive order.
	Run(testCfg(2), func(r *Rank) {
		if r.ID == 0 {
			r.Send(1, 1, []float64{1})
			r.Send(1, 2, []float64{2})
		} else {
			b := r.Recv(0, 2)
			a := r.Recv(0, 1)
			if a[0] != 1 || b[0] != 2 {
				t.Errorf("tag mismatch: a=%v b=%v", a, b)
			}
		}
	})
}

func TestFIFOWithinTag(t *testing.T) {
	Run(testCfg(2), func(r *Rank) {
		if r.ID == 0 {
			for k := 0; k < 10; k++ {
				r.Send(1, 0, []float64{float64(k)})
			}
		} else {
			for k := 0; k < 10; k++ {
				if got := r.Recv(0, 0); got[0] != float64(k) {
					t.Errorf("FIFO violated: got %v want %d", got, k)
				}
			}
		}
	})
}

func TestDeterministicTimes(t *testing.T) {
	run := func() float64 {
		res := Run(testCfg(6), func(r *Rank) {
			// Ring exchange with staggered compute.
			r.Compute(float64(r.ID+1) * 1e4)
			next := (r.ID + 1) % 6
			prev := (r.ID + 5) % 6
			r.Send(next, 0, make([]float64, 100))
			r.Recv(prev, 0)
			r.Compute(5e4)
			r.Barrier()
		})
		return res.Time
	}
	t1 := run()
	for k := 0; k < 5; k++ {
		if t2 := run(); t2 != t1 {
			t.Fatalf("nondeterministic time: %g vs %g", t1, t2)
		}
	}
}

func TestTraceEvents(t *testing.T) {
	cfg := testCfg(2)
	cfg.Trace = true
	res := Run(cfg, func(r *Rank) {
		if r.ID == 0 {
			r.ComputeLabeled(1000, "phase-a")
			r.Send(1, 0, []float64{1})
		} else {
			r.Recv(0, 0)
		}
	})
	var kinds = map[EventKind]int{}
	for _, e := range res.Events {
		kinds[e.Kind]++
		if e.End < e.Start {
			t.Errorf("event with negative duration: %+v", e)
		}
	}
	if kinds[EvCompute] != 1 || kinds[EvSend] != 1 || kinds[EvRecvWait] != 1 || kinds[EvRecvCopy] != 1 {
		t.Fatalf("event kinds = %v", kinds)
	}
	// Label preserved.
	found := false
	for _, e := range res.Events {
		if e.Label == "phase-a" {
			found = true
		}
	}
	if !found {
		t.Error("labeled event missing")
	}
}

func TestSP2ConfigSanity(t *testing.T) {
	cfg := SP2Config(16)
	if cfg.Procs != 16 || cfg.Latency <= 0 || cfg.FlopTime <= 0 || cfg.GapPerByte <= 0 {
		t.Fatalf("bad SP2 config: %+v", cfg)
	}
}

// runRecovering runs body on every rank with the panic-recovery wrapper
// real callers (spmd, nas) install, collecting the first abort error.
func runRecovering(cfg Config, body func(r *Rank)) (res *Result, err error) {
	var mu sync.Mutex
	res = Run(cfg, func(r *Rank) {
		defer func() {
			if rec := recover(); rec != nil {
				mu.Lock()
				if err == nil {
					if e, ok := rec.(error); ok {
						err = e
					} else {
						err = fmt.Errorf("rank %d: %v", r.ID, rec)
					}
				}
				mu.Unlock()
			}
		}()
		body(r)
	})
	return res, err
}

func TestTimeLimitAbortsDeterministically(t *testing.T) {
	cfg := Config{Procs: 2, FlopTime: 1e-6, Latency: 1e-6, TimeLimit: 50e-6}
	// Under the limit: completes.
	_, err := runRecovering(cfg, func(r *Rank) { r.Compute(40) })
	if err != nil {
		t.Fatalf("run under the limit aborted: %v", err)
	}
	// Over the limit: every run aborts with ErrTimeLimit.
	for i := 0; i < 3; i++ {
		_, err := runRecovering(cfg, func(r *Rank) {
			for j := 0; j < 100; j++ {
				r.Compute(1)
			}
		})
		if !errors.Is(err, ErrTimeLimit) || !errors.Is(err, ErrAborted) {
			t.Fatalf("run %d: want ErrTimeLimit, got %v", i, err)
		}
	}
}

func TestTimeLimitWakesBlockedReceiver(t *testing.T) {
	// Rank 0 exceeds the limit while rank 1 is blocked in Recv on a
	// message that will never be sent; the abort must wake rank 1 or the
	// run deadlocks (the test itself would then time out).
	cfg := Config{Procs: 2, FlopTime: 1e-6, Latency: 1e-6, TimeLimit: 10e-6}
	_, err := runRecovering(cfg, func(r *Rank) {
		if r.ID == 0 {
			r.Compute(100)
		} else {
			r.Recv(0, 7)
		}
	})
	if !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("want ErrTimeLimit, got %v", err)
	}
}

func TestTimeLimitWakesBarrierAndReduce(t *testing.T) {
	cfg := Config{Procs: 3, FlopTime: 1e-6, Latency: 1e-6, TimeLimit: 10e-6}
	_, err := runRecovering(cfg, func(r *Rank) {
		if r.ID == 0 {
			r.Compute(100)
		} else if r.ID == 1 {
			r.Barrier()
		} else {
			r.AllReduceSum(1)
		}
	})
	if !errors.Is(err, ErrTimeLimit) {
		t.Fatalf("want ErrTimeLimit, got %v", err)
	}
}

func TestWallLimitBreaksVirtualDeadlock(t *testing.T) {
	// Both ranks wait on messages that are never sent: virtual time is
	// stuck, so only the wall-clock limit can end the run.
	cfg := Config{Procs: 2, FlopTime: 1e-6, Latency: 1e-6, WallLimit: 50 * time.Millisecond}
	_, err := runRecovering(cfg, func(r *Rank) {
		r.Recv(1-r.ID, 9)
	})
	if !errors.Is(err, ErrWallLimit) || !errors.Is(err, ErrAborted) {
		t.Fatalf("want ErrWallLimit, got %v", err)
	}
}

func TestRankAbortWakesBlockedPeers(t *testing.T) {
	// No limit is configured: only the dying rank's own Abort can free
	// the peers blocked on a message, a barrier and a reduction it will
	// never complete (the test itself would otherwise time out).
	cause := fmt.Errorf("rank 0 died: %w", ErrAborted)
	cfg := Config{Procs: 4, FlopTime: 1e-6, Latency: 1e-6}
	_, err := runRecovering(cfg, func(r *Rank) {
		switch r.ID {
		case 0:
			r.Abort(cause)
		case 1:
			r.Recv(0, 7)
		case 2:
			r.Barrier()
		default:
			r.AllReduceSum(1)
		}
	})
	if err != cause {
		t.Fatalf("want the aborting rank's cause, got %v", err)
	}
}

func TestNoLimitsUnchanged(t *testing.T) {
	// Zero limits keep the legacy behaviour: no aborts, exact clocks.
	cfg := Config{Procs: 2, FlopTime: 1e-6, Latency: 1e-6}
	res, err := runRecovering(cfg, func(r *Rank) { r.Compute(1000) })
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Time-1000e-6) > 1e-12 {
		t.Fatalf("Time = %g, want 1e-3", res.Time)
	}
}
