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

import "dhpf/internal/passes"

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
