package sched_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"dhpf/internal/nas"
	"dhpf/internal/sched"
	"dhpf/internal/spmd"
)

// nameKey is the name-keyed memo key the walker spelled before it bound
// by slot (KeyScratch.bind and the key prefixes), kept as the reference
// the slot-spelled keys must equal byte for byte.
func nameKey(b []byte, names []string, bind map[string]int) []byte {
	for _, name := range names {
		v, ok := bind[name]
		if !ok {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		b = binary.AppendVarint(b, int64(v))
	}
	return b
}

func namePlanKey(names []string, f *sched.Firing, depth int, strip *sched.Strip, bind map[string]int) []byte {
	b := []byte{'P'}
	b = binary.AppendUvarint(b, uint64(f.ID))
	b = binary.AppendVarint(b, int64(depth))
	if strip == nil {
		b = append(b, 0)
	} else {
		b = append(b, 1)
		b = binary.AppendUvarint(b, uint64(len(strip.Var)))
		b = append(b, strip.Var...)
		b = binary.AppendVarint(b, int64(strip.Lo))
		b = binary.AppendVarint(b, int64(strip.Hi))
	}
	return nameKey(b, names, bind)
}

func nameActivationKey(names []string, procID, rank int, bind map[string]int) []byte {
	b := []byte{'A'}
	b = binary.AppendUvarint(b, uint64(procID))
	b = binary.AppendUvarint(b, uint64(rank))
	return nameKey(b, names, bind)
}

// TestSlotKeyIsTheNameKey: over random bindings of SP12, LU16 and
// SPMod12 — every placed firing, depths, strips, bound and unbound names
// with values of every varint length — the plan and activation keys
// spelled from the slot form equal the name-keyed reference byte for
// byte, so the memo's key format did not change.
func TestSlotKeyIsTheNameKey(t *testing.T) {
	for name, src := range map[string]string{
		"sp12":    nas.SPSource(12, 1, 2, 2),
		"lu16":    nas.LUSource(16, 1, 2, 2),
		"spmod12": nas.SPModSource(12, 1, 2, 2),
	} {
		prog, err := spmd.CompileSource(src, nil, spmd.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s := prog.Schedule()
		names := s.Names()
		var firings []*sched.Firing
		for _, proc := range prog.IR.Procs {
			ps := s.Proc(proc)
			for _, ls := range ps.Loops {
				firings = append(firings, &ls.Reads, &ls.Writes, &ls.Pipe)
			}
			for _, ss := range ps.Top {
				firings = append(firings, &ss.Reads, &ss.Writes)
			}
		}
		rng := rand.New(rand.NewSource(22))
		values := []int{0, 1, -1, 63, -64, 64, 1 << 20, -(1 << 40)}
		for n := 0; n < 2000; n++ {
			bind := map[string]int{}
			for _, v := range names {
				if rng.Intn(2) == 0 {
					bind[v] = values[rng.Intn(len(values))] + rng.Intn(3)
				}
			}
			f := firings[rng.Intn(len(firings))]
			depth := rng.Intn(4)
			var strip *sched.Strip
			if rng.Intn(2) == 0 {
				strip = &sched.Strip{Var: names[rng.Intn(len(names))], Lo: rng.Intn(20) - 2, Hi: rng.Intn(40)}
			}
			if got, want := s.SlotPlanKey(f, depth, strip, bind), namePlanKey(names, f, depth, strip, bind); !bytes.Equal(got, want) {
				t.Fatalf("%s: plan key of firing %d at depth %d, strip %v, binding %v:\n slot %q\n name %q", name, f.ID, depth, strip, bind, got, want)
			}
			proc := prog.IR.Procs[rng.Intn(len(prog.IR.Procs))]
			rank := rng.Intn(prog.Grid.Size())
			if got, want := s.SlotActivationKey(proc, rank, bind), nameActivationKey(names, s.Proc(proc).Index(), rank, bind); !bytes.Equal(got, want) {
				t.Fatalf("%s: activation key of %s on rank %d, binding %v:\n slot %q\n name %q", name, proc.Name, rank, bind, got, want)
			}
		}
	}
}
