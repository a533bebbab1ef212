package mpsim

import (
	"math"
	"testing"
)

// TestSendCopiesCallerBuffer pins the Send ownership contract the spmd
// engine's pooled packing depends on: Send copies its payload before
// returning, so the caller may immediately reuse or mutate the buffer
// without corrupting the in-flight message.
func TestSendCopiesCallerBuffer(t *testing.T) {
	cfg := Config{Procs: 2, Latency: 1e-6, GapPerByte: 1e-9, FlopTime: 1e-8}
	res := Run(cfg, func(r *Rank) {
		if r.ID == 0 {
			buf := []float64{1, 2, 3, 4}
			r.Send(1, 7, buf)
			for i := range buf {
				buf[i] = -99 // caller reuses the buffer right away
			}
			r.Send(1, 8, buf)
		} else {
			first := r.Recv(0, 7)
			for i, want := range []float64{1, 2, 3, 4} {
				if first[i] != want {
					t.Errorf("message mutated after Send: got %v at %d, want %v", first[i], i, want)
				}
			}
			second := r.Recv(0, 8)
			for i := range second {
				if second[i] != -99 {
					t.Errorf("second message: got %v at %d, want -99", second[i], i)
				}
			}
		}
	})
	if res.TotalMessages() != 2 {
		t.Fatalf("messages = %d, want 2", res.TotalMessages())
	}
}

// TestRecycleKeepsResultsAndClocksIdentical runs the same exchange
// pattern with and without buffer recycling and requires bit-identical
// payload values, clocks, and message counters — recycling must be
// semantically invisible.
func TestRecycleKeepsResultsAndClocksIdentical(t *testing.T) {
	run := func(recycle bool) (*Result, []float64) {
		cfg := SP2Config(2)
		var got []float64
		res := Run(cfg, func(r *Rank) {
			peer := 1 - r.ID
			for step := 0; step < 10; step++ {
				out := make([]float64, 16)
				for i := range out {
					out[i] = float64(r.ID*1000 + step*16 + i)
				}
				r.Send(peer, step, out)
				in := r.Recv(peer, step)
				r.Compute(float64(len(in)))
				if r.ID == 0 && step == 9 {
					got = append([]float64(nil), in...)
				}
				if recycle {
					r.Recycle(in)
				}
			}
		})
		return res, got
	}
	plain, plainData := run(false)
	pooled, pooledData := run(true)
	if len(plainData) != len(pooledData) {
		t.Fatalf("payload lengths differ: %d vs %d", len(plainData), len(pooledData))
	}
	for i := range plainData {
		if math.Float64bits(plainData[i]) != math.Float64bits(pooledData[i]) {
			t.Fatalf("payload[%d] differs: %v vs %v", i, plainData[i], pooledData[i])
		}
	}
	for rk := 0; rk < 2; rk++ {
		if plain.RankTime[rk] != pooled.RankTime[rk] {
			t.Fatalf("rank %d clock differs: %v vs %v", rk, plain.RankTime[rk], pooled.RankTime[rk])
		}
		if plain.SentMsgs[rk] != pooled.SentMsgs[rk] || plain.SentBytes[rk] != pooled.SentBytes[rk] {
			t.Fatalf("rank %d counters differ", rk)
		}
	}
}

// TestGetBufRetainsHighWater is the regression test for the mixed-size
// staging regrowth bug: payloads alternating 8, 2 048 and 500 doubles
// through Send, Recv and Recycle must not re-grow a buffer every time the
// sizes alternate.  After one warm round the recycled buffers fit every
// payload, and a round trip of each size allocates nothing.
func TestGetBufRetainsHighWater(t *testing.T) {
	sizes := []int{8, 2048, 500}
	const rounds = 20
	out := make([]float64, 2048)
	Run(testCfg(2), func(r *Rank) {
		if r.ID == 1 { // echo every payload back, recycling what it received
			for k := 0; k < (rounds+1)*len(sizes); k++ {
				in := r.Recv(0, k%len(sizes))
				r.Send(0, k%len(sizes), in)
				r.Recycle(in)
			}
			return
		}
		round := func() {
			for tag, n := range sizes {
				r.Send(1, tag, out[:n])
				in := r.Recv(1, tag)
				if len(in) != n {
					t.Errorf("payload of %d doubles came back with %d", n, len(in))
				}
				r.Recycle(in)
			}
		}
		if n := testing.AllocsPerRun(rounds, round); n != 0 {
			t.Errorf("%v allocations per warm round of 8 / 2048 / 500 doubles, want 0", n)
		}
	})
}

// TestMixedSizeTransfersStayCorrect runs alternating small/large
// exchanges with recycling: reusing a recycled buffer must stay
// semantically invisible (payloads intact, exact lengths) while the
// free lists serve both sizes.
func TestMixedSizeTransfersStayCorrect(t *testing.T) {
	cfg := Config{Procs: 2, Latency: 1e-6}
	Run(cfg, func(r *Rank) {
		peer := 1 - r.ID
		sizes := []int{8, 2048}
		for step := 0; step < 40; step++ {
			out := make([]float64, sizes[step%2])
			for i := range out {
				out[i] = float64(step + i)
			}
			r.Send(peer, step, out)
			in := r.Recv(peer, step)
			if len(in) != sizes[step%2] {
				t.Errorf("step %d: len = %d, want %d", step, len(in), sizes[step%2])
			}
			if in[0] != float64(step) || in[len(in)-1] != float64(step+len(in)-1) {
				t.Errorf("step %d: payload corrupted: %v...%v", step, in[0], in[len(in)-1])
			}
			r.Recycle(in)
		}
	})
}

// TestRecycledBufferIsReusedBySend exercises recycling end to end: a
// recycled receive buffer of sufficient capacity must satisfy a later
// Send's internal copy without changing what the receiver observes.
func TestRecycledBufferIsReusedBySend(t *testing.T) {
	cfg := Config{Procs: 2, Latency: 1e-6}
	Run(cfg, func(r *Rank) {
		peer := 1 - r.ID
		for step := 0; step < 50; step++ {
			out := []float64{float64(step), float64(r.ID)}
			r.Send(peer, step, out)
			in := r.Recv(peer, step)
			if in[0] != float64(step) || in[1] != float64(peer) {
				t.Errorf("step %d: got %v", step, in)
			}
			r.Recycle(in)
		}
	})
}

// TestReusedFreeListsStayBounded: a machine kept across runs whose
// payload sizes mix keeps, per size class, only what the class had in
// flight.  Each run has 64 payloads in flight at once: one of 1 000
// doubles, at a tag that moves from run to run, and 63 small ones.  A
// free list that hands any large-enough buffer to any request lets the
// small payloads take the large buffers while the large one drops a
// small buffer for a fresh one, so large buffers pile up (one such list
// retained 3 183 doubles after the third run, against a high water of
// 1 189); by size class the retained capacity stays under twice the
// in-flight high water.
func TestReusedFreeListsStayBounded(t *testing.T) {
	cfg := testCfg(2)
	m := NewMachine(cfg, MessageCost(cfg))
	out := make([]float64, 1000)
	for i := range out {
		out[i] = float64(i)
	}
	high := 0
	for run := 0; run < 16; run++ {
		sizes := make([]int, 64)
		for tag := range sizes {
			sizes[tag] = 1 + run%8
		}
		sizes[run*17%64] = 1000
		inFlight := 0
		for _, n := range sizes {
			inFlight += n
		}
		high = max(high, inFlight)
		m.Run(func(r *Rank) {
			if r.ID == 0 {
				for tag, n := range sizes {
					r.Send(1, tag, out[:n])
				}
				r.Barrier()
				return
			}
			r.Barrier()
			got := make([][]float64, len(sizes))
			for tag, n := range sizes {
				got[tag] = r.Recv(0, tag)
				if len(got[tag]) != n || got[tag][n-1] != float64(n-1) {
					t.Errorf("run %d tag %d: payload of %d doubles arrived as %d", run, tag, n, len(got[tag]))
				}
			}
			for _, b := range got {
				r.Recycle(b)
			}
		})
		if !m.Idle() {
			t.Fatalf("run %d left the machine busy", run)
		}
		retained := 0
		for _, class := range m.boxes[1].free {
			for _, b := range class {
				retained += cap(b)
			}
		}
		if retained > 2*high {
			t.Fatalf("run %d: %d doubles retained, in-flight high water %d", run, retained, high)
		}
	}
}

// TestRunAgainIsFirstRun: a machine's later runs start where its first
// did — clocks, counters, collectives and the abort flag at zero — even
// after a run that aborted, and under the configuration of the run.
func TestRunAgainIsFirstRun(t *testing.T) {
	cfg := testCfg(3)
	body := func(r *Rank) {
		peer := (r.ID + 1) % 3
		r.Compute(float64(1000 * (r.ID + 1)))
		r.Send(peer, 1, make([]float64, 8*(r.ID+1)))
		r.Recycle(r.Recv((r.ID+2)%3, 1))
		r.AllReduce('+', float64(r.ID))
		r.Barrier()
	}
	want := Run(cfg, body)
	m := NewMachine(cfg, MessageCost(cfg))
	for run := 0; run < 4; run++ {
		if run == 2 { // an aborted run in between
			limited := cfg
			limited.TimeLimit = want.Time / 2
			m.Configure(limited, MessageCost(limited))
			m.Run(func(r *Rank) {
				defer func() { recover() }()
				body(r)
			})
			if m.Idle() {
				t.Fatal("an aborted run left the machine idle")
			}
			m.Configure(cfg, MessageCost(cfg))
		}
		got, _ := m.Run(body)
		if got.Time != want.Time || got.TotalMessages() != want.TotalMessages() || got.TotalBytes() != want.TotalBytes() {
			t.Fatalf("run %d: time %v, %d msgs, %d B; a fresh machine's %v, %d, %d", run,
				got.Time, got.TotalMessages(), got.TotalBytes(), want.Time, want.TotalMessages(), want.TotalBytes())
		}
		for i := range want.RankTime {
			if got.RankTime[i] != want.RankTime[i] || got.RankIdle[i] != want.RankIdle[i] || got.RankFlops[i] != want.RankFlops[i] {
				t.Fatalf("run %d rank %d: clock %v idle %v flops %v; a fresh machine's %v %v %v", run, i,
					got.RankTime[i], got.RankIdle[i], got.RankFlops[i], want.RankTime[i], want.RankIdle[i], want.RankFlops[i])
			}
		}
	}
}
