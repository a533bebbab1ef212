package mpsim

import (
	"math"
	"testing"
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

func TestAllReduce(t *testing.T) {
	Run(testCfg(4), func(r *Rank) {
		got := r.AllReduce('+', float64(r.ID+1))
		if got != 10 {
			t.Errorf("rank %d sum = %g", r.ID, got)
		}
	})
}

func TestAllReduceRepeated(t *testing.T) {
	Run(testCfg(3), func(r *Rank) {
		for k := 0; k < 5; k++ {
			got := r.AllReduce('+', 1)
			if got != 3 {
				t.Errorf("round %d sum = %g", k, got)
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

	// Three sources interleave two tags into rank 0, which takes them in
	// an order unlike anyone's posting order: tag 20 before tag 10,
	// sources in reverse.  Each (source, tag) must stay FIFO, and every
	// receive must end at the clock the cost model gives it.
	cfg := testCfg(4)
	const perTag = 3
	// arrival(j) is when a source's j-th send (from 1) reaches rank 0.
	sendCost := cfg.SendOverhead + 24*cfg.GapPerByte
	arrival := func(j int) float64 {
		clock := 0.0
		for ; j > 0; j-- {
			clock += sendCost
		}
		return clock + cfg.Latency
	}
	Run(cfg, func(r *Rank) {
		if r.ID > 0 {
			for k := 0; k < perTag; k++ {
				for _, tag := range []int{10, 20} {
					r.Send(0, tag, []float64{float64(r.ID), float64(tag), float64(k)})
				}
			}
			return
		}
		clock := 0.0
		for _, tag := range []int{20, 10} {
			for k := 0; k < perTag; k++ {
				for src := 3; src >= 1; src-- {
					got := r.Recv(src, tag)
					if len(got) != 3 || got[0] != float64(src) || got[1] != float64(tag) || got[2] != float64(k) {
						t.Errorf("Recv(%d, %d) #%d = %v, want [%d %d %d]", src, tag, k, got, src, tag, k)
					}
					j := 2*k + 1 // this message's place in its source's sends
					if tag == 20 {
						j++
					}
					if at := arrival(j); at > clock {
						clock = at
					}
					clock += cfg.RecvOverhead
					if r.Time() != clock {
						t.Errorf("after Recv(%d, %d) #%d: clock %v, want %v", src, tag, k, r.Time(), clock)
					}
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

func TestNoLimitsUnchanged(t *testing.T) {
	// Zero limits: no aborts, exact clocks.
	res := Run(Config{Procs: 2, FlopTime: 1e-6, Latency: 1e-6}, func(r *Rank) { r.Compute(1000) })
	if math.Abs(res.Time-1000e-6) > 1e-12 {
		t.Fatalf("Time = %g, want 1e-3", res.Time)
	}
}

// TestUntracedOpsDoNotAllocate: with Trace off, advancing the clock,
// meeting in a collective and a round trip between two ranks — 128
// doubles through Send/Recv/Recycle, or a token through Post/Take as shm
// moves one — cost no allocation once the first round trip has warmed
// the mailboxes (events are never built up, payload buffers and queue
// storage are reused).
func TestUntracedOpsDoNotAllocate(t *testing.T) {
	const runs = 100
	payload, token := make([]float64, 128), new(int)
	ops := []struct {
		name string
		op   func(r *Rank) // rank 0 sends first, rank 1 answers
	}{
		{"compute+barrier+allreduce", func(r *Rank) {
			r.Compute(10)
			r.Barrier()
			r.AllReduce('+', 1)
		}},
		{"Send/Recv/Recycle round trip", func(r *Rank) {
			if r.ID == 0 {
				r.Send(1, 1, payload)
			}
			r.Recycle(r.Recv(1-r.ID, 1))
			if r.ID == 1 {
				r.Send(0, 1, payload)
			}
		}},
		{"Post/Take token round trip", func(r *Rank) {
			if r.ID == 0 {
				r.Post(1, 2, Message{Ref: token, At: r.Time()})
			}
			r.Take(1-r.ID, 2)
			if r.ID == 1 {
				r.Post(0, 2, Message{Ref: token, At: r.Time()})
			}
		}},
	}
	res := Run(testCfg(2), func(r *Rank) {
		for _, c := range ops {
			if r.ID == 1 { // AllocsPerRun runs the op once more to warm up
				for i := 0; i <= runs; i++ {
					c.op(r)
				}
				continue
			}
			if n := testing.AllocsPerRun(runs, func() { c.op(r) }); n != 0 {
				t.Errorf("%v allocations per untraced %s, want 0", n, c.name)
			}
		}
	})
	if len(res.Events) != 0 {
		t.Errorf("untraced run recorded %d events", len(res.Events))
	}
}
