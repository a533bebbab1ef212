package sched

import "dhpf/internal/ir"

// Names returns the schedule's scalar names in slot order.
func (s *Schedule) Names() []string { return s.names }

// SlotPlanKey and SlotActivationKey spell the memo keys the walker looks
// up from the slot form of bind.
func (s *Schedule) SlotPlanKey(f *Firing, depth int, strip *Strip, bind map[string]int) []byte {
	return s.planKey(new(KeyScratch), f, depth, strip, s.slotted(bind, new(binding)))
}

func (s *Schedule) SlotActivationKey(proc *ir.Procedure, rank int, bind map[string]int) []byte {
	return s.activationKey(new(KeyScratch), s.procs[proc], rank, s.slotted(bind, new(binding)))
}
