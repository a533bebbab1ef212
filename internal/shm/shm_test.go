package shm

import (
	"math"
	"testing"

	"dhpf/internal/mpsim"
)

func testConfig(threads int, groups []int) Config {
	return FromMachine(mpsim.Config{
		Procs:        threads,
		FlopTime:     1e-8,
		SendOverhead: 1e-6,
		RecvOverhead: 1e-6,
		Latency:      30e-6,
		GapPerByte:   1e-8,
	}, groups)
}

// TestRendezvousPull: a ring of producers and consumers where each
// thread pulls its left neighbour's value directly out of shared
// storage.  Exercises Publish/Await/Ack/Drain concurrently — the
// -race run of this package leans on this test.
func TestRendezvousPull(t *testing.T) {
	const P = 4
	vals := make([][]float64, P)
	for i := range vals {
		vals[i] = []float64{float64(i) * 10}
	}
	got := make([]float64, P)
	mres, res := Run(testConfig(P, nil), func(th *Thread) {
		th.Compute(100)
		right := (th.ID + 1) % P
		left := (th.ID + P - 1) % P
		th.Publish(right, 7, 8, vals[th.ID])
		src := th.Await(left, 7).([]float64)
		got[th.ID] = src[0]
		th.Ack(left, 8)
		th.Drain()
		th.Barrier()
	})
	for i := 0; i < P; i++ {
		want := float64((i+P-1)%P) * 10
		if got[i] != want {
			t.Errorf("thread %d pulled %v, want %v", i, got[i], want)
		}
	}
	if res.TotalPulls() != P || res.TotalPulledBytes() != P*8 {
		t.Errorf("pulls = %d (%d bytes), want %d (%d)", res.TotalPulls(), res.TotalPulledBytes(), P, P*8)
	}
	if res.Groups != 1 || res.Barriers != P {
		t.Errorf("groups = %d, barriers = %d, want 1, %d", res.Groups, res.Barriers, P)
	}
	if n := mres.TotalMessages(); n != 0 {
		t.Errorf("pure shm run has %d outer messages", n)
	}
	if mres.Time <= 0 {
		t.Error("zero makespan")
	}
}

// TestAllReduceRankOrderFold: reductions fold in thread order 0..P-1,
// so the result is bit-identical to a serial left fold (and to mpsim).
func TestAllReduceRankOrderFold(t *testing.T) {
	const P = 4
	contrib := []float64{0.1, 0.2, 0.3, 0.4}
	want := contrib[0]
	for _, v := range contrib[1:] {
		want += v
	}
	sums := make([]float64, P)
	Run(testConfig(P, nil), func(th *Thread) {
		sums[th.ID] = th.AllReduce('+', contrib[th.ID])
	})
	for i, s := range sums {
		if math.Float64bits(s) != math.Float64bits(want) {
			t.Errorf("thread %d sum %v, want bit-identical %v", i, s, want)
		}
	}
}

// TestHybridOuterTraffic: with two groups, a cross-group publish is
// priced and counted as a message while an intra-group one stays a
// memory pull.
func TestHybridOuterTraffic(t *testing.T) {
	buf := []float64{1}
	mres, res := Run(testConfig(4, []int{0, 0, 1, 1}), func(th *Thread) {
		switch th.ID {
		case 0: // intra-group to 1, cross-group to 2
			th.Publish(1, 1, 8, buf)
			th.Publish(2, 2, 8, buf)
			th.Drain()
		case 1:
			th.Await(0, 1)
			th.Ack(0, 8)
		case 2:
			th.Await(0, 2)
			th.Ack(0, 8)
		}
		th.Barrier()
	})
	if res.Groups != 2 {
		t.Fatalf("groups = %d, want 2", res.Groups)
	}
	if mres.SentMsgs[0] != 1 || mres.SentBytes[0] != 8 {
		t.Errorf("thread 0 outer traffic = %d msgs %d bytes, want 1 msg 8 bytes",
			mres.SentMsgs[0], mres.SentBytes[0])
	}
	if res.TotalPulls() != 2 {
		t.Errorf("pulls = %d, want 2", res.TotalPulls())
	}
}
