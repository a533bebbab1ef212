package spmd

// exec_shm.go runs a compiled program on the shared-memory substrate
// (internal/shm): one goroutine per rank of the processor grid, private
// full-size arrays per thread, and the message-machine transfer plans
// replayed as rendezvous-then-pull synchronization (see Send, Recv and
// Drain in exec.go).  The threads execute exactly the
// iteration partitions the message ranks would — same ON_HOME sets,
// same loop order, same rank-order reductions — so numeric results are
// bit-identical across backends by construction; only the virtual
// clocks differ (memory bandwidth instead of message latency).
//
// Hybrid layouts ("ranks across a grid dimension × threads within a
// rank") reuse the same partitioning: threads whose grid coordinate
// agrees in dimension 0 form one shared-memory group, and pulls across
// groups are priced like the messages the outer rank level would send.

import (
	"dhpf/internal/iset"
	"dhpf/internal/mpsim"
	"dhpf/internal/passes"
	"dhpf/internal/shm"
)

// shmGroups returns the shared-memory grouping of the canonical backend
// name: nil (one group) for BackendShm, the grid's outermost coordinate
// for BackendHybrid.
func (p *Program) shmGroups(backend string) []int {
	if backend != passes.BackendHybrid {
		return nil
	}
	groups := make([]int, p.Grid.Size())
	for r := range groups {
		groups[r] = p.Grid.Coord(r)[0]
	}
	return groups
}

// machineView synthesizes the uniform Machine view from the team's
// clocks: rank times map one-to-one, and the message counters carry the
// hybrid layout's outer traffic (zero for pure shm), so Seconds/Messages/
// Bytes accessors and the tuner read every backend the same way.
func machineView(sres *shm.Result) *mpsim.Result {
	return &mpsim.Result{
		Procs:     sres.Threads,
		Time:      sres.Time,
		RankTime:  sres.ThreadTime,
		RankIdle:  sres.ThreadIdle,
		RankFlops: sres.ThreadFlops,
		SentMsgs:  sres.OuterMsgs,
		SentBytes: sres.OuterBytes,
		RecvMsgs:  make([]int64, sres.Threads),
	}
}

// pullPayload copies the set's elements from src into dst directly,
// array to array: the shared-memory replacement for packPayload +
// unpackPayload with no staging buffer in between.  dst and src are the
// two ranks' private copies of the same declaration, so they share
// geometry; offsets are still computed per array for robustness, and
// boxes that cannot be row-copied on both fall back to the element-wise
// walk with the interpreter's exact bounds panics.
func pullPayload(dst, src *array, s iset.Set) {
	for _, b := range s.Boxes() {
		if !rowCopyable(b, dst) || !rowCopyable(b, src) {
			b.Each(func(p []int) bool {
				dst.set(p, src.get(p))
				return true
			})
			continue
		}
		r := b.Rank()
		w := b.Hi[r-1] - b.Lo[r-1] + 1
		p := make([]int, r)
		copy(p, b.Lo)
		for {
			do, so := 0, 0
			for k := 0; k < r; k++ {
				do += (p[k] - dst.lo[k]) * dst.stride[k]
				so += (p[k] - src.lo[k]) * src.stride[k]
			}
			copy(dst.data[do:do+w], src.data[so:so+w])
			k := r - 2
			for ; k >= 0; k-- {
				p[k]++
				if p[k] <= b.Hi[k] {
					break
				}
				p[k] = b.Lo[k]
			}
			if k < 0 {
				break
			}
		}
	}
}
