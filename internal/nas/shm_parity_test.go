package nas

// Differential check of the shared-memory backend on the full NAS-class
// codes: the shm team (both layouts) must reproduce the message
// machine's global arrays bit for bit on SP, BT, and the LU 2-D
// wavefront, under every pass ablation.  Clocks and traffic are not
// compared — the substrates price time differently by design; a pure
// shm run must simply report zero message traffic.

import (
	"fmt"
	"testing"

	"dhpf/internal/passes"
	"dhpf/internal/spmd"
)

func TestShmByteIdenticalNAS(t *testing.T) {
	cases := []struct {
		name  string
		src   string
		procs int
	}{
		{"sp", SPSource(12, 1, 2, 2), 4},
		{"bt", BTSource(12, 1, 2, 2), 4},
		{"lu", LUSource(12, 1, 2, 2), 4},
	}
	ablations := [][]string{nil, {"availability"}, {"loopdist"}, {"wbelim"}}
	for _, c := range cases {
		for _, disable := range ablations {
			for _, backend := range []string{passes.BackendShm, passes.BackendHybrid} {
				name := c.name + "-" + backend
				for _, d := range disable {
					name += "-no-" + d
				}
				// Hybrid's sync protocol is identical to shm's (only the
				// cost model differs); one unablated hybrid run per code
				// bounds the suite's runtime.
				if backend == passes.BackendHybrid && disable != nil {
					continue
				}
				t.Run(name, func(t *testing.T) {
					opt := spmd.DefaultOptions()
					opt.Disable = append(opt.Disable, disable...)
					mp, err := spmd.CompileSource(c.src, nil, opt)
					if err != nil {
						t.Fatalf("compile mp: %v", err)
					}
					opt.Backend = backend
					sm, err := spmd.CompileSource(c.src, nil, opt)
					if err != nil {
						t.Fatalf("compile %s: %v", backend, err)
					}
					cfg := smallMachine(c.procs)
					rm, errm := mp.ExecuteEngine(cfg, spmd.EngineCompiled)
					rs, errs := sm.ExecuteEngine(cfg, spmd.EngineCompiled)
					// SP without availability analysis deadlocks: in the
					// same receives, so with the same text, on both.
					if fmt.Sprint(errm) != fmt.Sprint(errs) {
						t.Fatalf("backends disagree on the outcome: mp err=%v, %s err=%v", errm, backend, errs)
					}
					if errm != nil {
						return
					}
					if backend == passes.BackendShm {
						if n := rs.Machine.TotalMessages(); n != 0 {
							t.Fatalf("pure shm run reports %d messages", n)
						}
						if rs.Shm == nil || rs.Shm.TotalPulls() == 0 {
							t.Fatalf("shm run reports no pulls (counters: %+v)", rs.Shm)
						}
					}
					if err := spmd.SameArrays(mp, rm, rs); err != nil {
						t.Fatalf("mp against %s: %v", backend, err)
					}
				})
			}
		}
	}
}
