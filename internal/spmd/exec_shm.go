package spmd

// exec_shm.go runs a compiled program on the shared-memory substrate
// (internal/shm): one goroutine per rank of the processor grid, private
// full-size arrays per thread, and the message-machine transfer plans
// replayed as rendezvous-then-pull synchronization (see doTransfers and
// the pipelined paths in exec.go).  The threads execute exactly the
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
	"errors"
	"fmt"
	"sync"

	"dhpf/internal/iset"
	"dhpf/internal/mpsim"
	"dhpf/internal/passes"
	"dhpf/internal/shm"
)

// executeShm is ExecuteEngine's shared-memory path: same program, same
// engine choice, same per-rank setup, run on a shm.Team instead of the
// message machine.  backend is the canonical name (BackendShm or
// BackendHybrid) and only chooses the grouping.
func (p *Program) executeShm(cfg mpsim.Config, engine Engine, backend string) (*ExecResult, error) {
	var groups []int
	if backend == passes.BackendHybrid {
		groups = make([]int, p.Grid.Size())
		for r := range groups {
			groups[r] = p.Grid.Coord(r)[0]
		}
	}
	var plan *enginePlan
	if engine == EngineCompiled || engine == EngineCodegen {
		plan, _ = p.enginePlanFor()
	}
	var kernels map[*pLoop]*boundKernel
	if engine == EngineCodegen && plan != nil {
		kernels = p.kernelBindings()
	}
	ranks := make([]*rankExec, cfg.Procs)
	var mu sync.Mutex
	var execErr error
	sres := shm.Run(shm.FromMachine(cfg, groups), func(t *shm.Thread) {
		rx := &rankExec{p: p, th: t, me: t.ID, bind: map[string]int{}, plan: plan, kernels: kernels}
		if plan != nil {
			rx.env.ints = make([]int, plan.nInts)
			rx.env.intSet = make([]bool, plan.nInts)
		}
		for k, v := range p.Ctx.Bind.Params {
			rx.bind[k] = v
			if plan != nil {
				s := plan.intSlot[k]
				rx.env.ints[s] = v
				rx.env.intSet[s] = true
			}
		}
		mu.Lock()
		ranks[t.ID] = rx
		mu.Unlock()
		defer func() {
			if rec := recover(); rec != nil {
				mu.Lock()
				if execErr == nil {
					if err, ok := rec.(error); ok && errors.Is(err, mpsim.ErrAborted) {
						execErr = err
					} else {
						execErr = fmt.Errorf("spmd: rank %d: %v", t.ID, rec)
					}
				}
				if debugPanics {
					fmt.Println("SPMD-PANIC:", execErr)
				}
				mu.Unlock()
				// A dead thread can never publish or acknowledge again:
				// abort the team so peers blocked in Await/Drain unwind
				// instead of deadlocking until the wall limit.
				t.Abort(mpsim.ErrAborted)
			}
		}()
		main := p.IR.Main()
		rx.runProc(main, map[string]*array{}, nil)
		rx.flushFlops()
	})
	if execErr != nil {
		return nil, execErr
	}
	// Synthesize the uniform Machine view from the team's clocks: rank
	// times map one-to-one, and the message counters carry the hybrid
	// layout's outer traffic (zero for pure shm), so Seconds/Messages/
	// Bytes accessors and the tuner read every backend the same way.
	res := &mpsim.Result{
		Procs:     sres.Threads,
		Time:      sres.Time,
		RankTime:  sres.ThreadTime,
		RankIdle:  sres.ThreadIdle,
		RankFlops: sres.ThreadFlops,
		SentMsgs:  sres.OuterMsgs,
		SentBytes: sres.OuterBytes,
		RecvMsgs:  make([]int64, sres.Threads),
	}
	return &ExecResult{Machine: res, Shm: sres, Kernels: kernelStatsOf(len(kernels), ranks, res.RankFlops), prog: p, ranks: ranks}, nil
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
