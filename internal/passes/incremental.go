package passes

import (
	"context"
	"fmt"

	"dhpf/internal/analysis"
	"dhpf/internal/cache"
	"dhpf/internal/comm"
	"dhpf/internal/cp"
	"dhpf/internal/ir"
	"dhpf/internal/verify"
)

// Delta summarizes one incremental compile: how much of the program was
// dirty and how the artifact store fared.  Hits count artifacts thawed
// from the store; misses count artifacts that had to be recomputed
// (because the procedure's environment fingerprint changed, the store had
// evicted the entry, or a thaw failed its consistency checks).
type Delta struct {
	Procs          int      `json:"procs"`
	Dirty          int      `json:"dirty"`
	DirtyProcs     []string `json:"dirty_procs,omitempty"`
	ArtifactHits   int64    `json:"artifact_hits"`
	ArtifactMisses int64    `json:"artifact_misses"`
}

func (d *Delta) String() string {
	return fmt.Sprintf("incremental: %d/%d procs dirty %v, %d artifacts reused, %d recomputed",
		d.Dirty, d.Procs, d.DirtyProcs, d.ArtifactHits, d.ArtifactMisses)
}

// incrRun is the per-compile state of the incremental scheduler.
type incrRun struct {
	cc    *CompileContext
	store *cache.ArtifactStore
	fps   *unitFingerprints
	// dirty marks procedures with no selection artifact under their
	// environment — those whose environment changed since the artifacts
	// were frozen, or whose artifacts the store evicted; frozenSel holds
	// the clean procedures' selection artifacts.
	dirty     map[*ir.Procedure]bool
	frozenSel map[*ir.Procedure]*frozenSel
	// selOrder is the bottom-up call-graph order the selection phases
	// iterate; selDirty marks procedures whose selection is being computed
	// this run (dirty, or whose frozen selection failed to thaw), and
	// selFrozen latches the one-shot freeze of their finished state at the
	// pre-distribution boundary.
	selOrder  []*ir.Procedure
	selDirty  map[*ir.Procedure]bool
	selFrozen bool
	// commFresh marks procedures whose communication plan was built this
	// run (rather than thawed); only these may have the elimination
	// phases applied, and only these are frozen at lower time.
	commFresh map[*ir.Procedure]bool
	delta     *Delta
}

// RunIncremental is RunCtx with artifact memoization: per-procedure CP
// selections, communication plans, verification fragments and analysis
// fragments are reused from the store when the procedure's environment
// fingerprint is unchanged, and only dirty procedures are re-analyzed —
// in parallel on a bounded worker pool.  The cheap whole-program passes
// (parsing, binding, loop distribution, reductions, lowering) run as
// they do cold, so the resulting CompileContext is byte-for-byte
// identical to a cold RunCtx of the same source: reports, node programs
// and verification diagnostics cannot tell the difference.
func RunIncremental(cc *CompileContext, store *cache.ArtifactStore) (*Delta, error) {
	return RunIncrementalCtx(context.Background(), cc, store)
}

// RunIncrementalCtx is RunIncremental with cancellation at pass
// boundaries, mirroring RunCtx.
func RunIncrementalCtx(ctx context.Context, cc *CompileContext, store *cache.ArtifactStore) (*Delta, error) {
	if store == nil {
		return nil, fmt.Errorf("passes: RunIncremental needs an artifact store")
	}
	r := &incrRun{
		cc:        cc,
		store:     store,
		dirty:     map[*ir.Procedure]bool{},
		commFresh: map[*ir.Procedure]bool{},
		delta:     &Delta{},
	}
	err := runPipeline(ctx, cc, map[string]func() (bool, error){
		PassDependence:   r.dependence,
		PassCPSelect:     r.cpSelect,
		PassNewProp:      r.newProp,
		PassLocalize:     r.localize,
		PassInterproc:    r.interproc,
		PassLoopDist:     r.beforeDistribution(runLoopDist),
		PassReductions:   r.beforeDistribution(runReductions),
		PassCommPlan:     r.commPlan,
		PassAvailability: r.availability,
		PassWritebackRed: r.writebackRed,
		PassLower:        r.lower,
		PassVerify:       r.verify,
		PassAnalyze:      r.analyze,
	})
	if err != nil {
		return nil, err
	}
	r.delta.Procs = len(cc.IR.Procs)
	return r.delta, nil
}

// dependence replaces runDependence: fingerprints decide which
// procedures are dirty — those with no selection artifact under their
// environment — and only their dependences are derived, in parallel.  A
// clean procedure's are derived later only if a pass reads them: loop
// distribution, for a procedure whose thawed selection marked a pair.
func (r *incrRun) dependence() (bool, error) {
	cc := r.cc
	if err := newContext(cc); err != nil {
		return false, err
	}
	r.fps = fingerprintUnits(cc.Ctx, cc.Opt)
	r.frozenSel = map[*ir.Procedure]*frozenSel{}
	var dirty []*ir.Procedure
	for _, proc := range cc.IR.Procs {
		if v, ok := r.store.Get(artifactKey(artifactSel, r.fps.Env[proc])); ok {
			r.frozenSel[proc] = v.(*frozenSel)
			continue
		}
		dirty = append(dirty, proc)
		r.dirty[proc] = true
		r.delta.DirtyProcs = append(r.delta.DirtyProcs, proc.Name)
	}
	r.delta.Dirty = len(dirty)
	forEach(len(dirty), 0, func(k int) error {
		cc.Ctx.Deps(dirty[k])
		return nil
	})
	return len(dirty) == 0, nil
}

// selClean is the skip predicate the partial selection phases take: a
// procedure is skipped when its frozen selection thawed successfully.
func (r *incrRun) selClean(p *ir.Procedure) bool { return !r.selDirty[p] }

// cpSelect replaces runCPSelect: clean procedures install their frozen
// post-§6 selection state (CPs, entry CP, marked pairs, decision notes);
// the base selection search runs only for the dirty ones.  The
// propagation and interprocedural phases below are restricted the same
// way, so for a fully-clean program all four selection passes are
// no-ops over thawed state.
func (r *incrRun) cpSelect() (bool, error) {
	cc := r.cc
	order, err := cc.Ctx.Callees()
	if err != nil {
		return false, err
	}
	r.selOrder = order
	sel := cp.NewSelection()
	cc.Sel = sel
	r.selDirty = map[*ir.Procedure]bool{}
	for pi, proc := range order {
		if fz := r.frozenSel[proc]; fz != nil {
			if err := thawSel(proc, pi, sel, fz); err == nil {
				r.delta.ArtifactHits++
				continue
			}
		}
		r.selDirty[proc] = true
		r.delta.ArtifactMisses++
		r.store.MarkDirty(1)
	}
	if err := cp.SelectBaseInto(cc.Ctx, sel, cc.Opt.CP, r.selClean); err != nil {
		return false, err
	}
	return len(r.selDirty) == 0, refuseUndistributed(cc)
}

// newProp replaces runNewProp, propagating §4.1 only through dirty
// procedures (thawed selections are already post-propagation).
func (r *incrRun) newProp() (bool, error) {
	if err := cp.PropagateNewArraysPartial(r.cc.Ctx, r.cc.Sel, r.cc.Opt.CP, r.selClean); err != nil {
		return false, err
	}
	return len(r.selDirty) == 0, nil
}

// localize mirrors newProp for §4.2.
func (r *incrRun) localize() (bool, error) {
	if err := cp.PropagateLocalizePartial(r.cc.Ctx, r.cc.Sel, r.cc.Opt.CP, r.selClean); err != nil {
		return false, err
	}
	return len(r.selDirty) == 0, nil
}

// interproc replaces runInterproc: dirty procedures run §6 normally;
// clean ones republish their thawed entry CPs into ctx.EntryCPs at
// their bottom-up turn, so dirty callers translate against them.
func (r *incrRun) interproc() (bool, error) {
	if err := cp.SelectInterprocPartial(r.cc.Ctx, r.cc.Sel, r.selClean); err != nil {
		return false, err
	}
	return len(r.selDirty) == 0, nil
}

// beforeDistribution runs a cold pass after storing the finished
// selection state of the procedures selected this run.  It is the first
// of loopdist and reductions (mandatory, so the freeze does not depend on
// whether loopdist is ablated) that freezes: that is the last moment the
// pre-distribution statement walk — the selection's relocation anchor —
// is computable.
func (r *incrRun) beforeDistribution(run func(*CompileContext) error) func() (bool, error) {
	return func() (bool, error) {
		if !r.selFrozen {
			r.selFrozen = true
			for pi, proc := range r.selOrder {
				if r.selDirty[proc] {
					fz := freezeSel(proc, pi, r.cc.Sel)
					r.store.Put(artifactKey(artifactSel, r.fps.Env[proc]), fz, approxSize(fz))
				}
			}
		}
		return false, run(r.cc)
	}
}

// commPlan replaces runCommPlan: clean procedures thaw their finished
// (post-elimination) plans; dirty ones build events in parallel.
func (r *incrRun) commPlan() (bool, error) {
	cc := r.cc
	cc.Comm = map[string]*comm.Analysis{}
	var fresh []int
	for i, proc := range cc.IR.Procs {
		if !r.dirty[proc] {
			key := artifactKey(artifactComm, r.fps.Env[proc])
			if v, ok := r.store.Get(key); ok {
				if a, err := thawComm(proc, v.(*frozenComm)); err == nil {
					cc.Comm[proc.Name] = a
					r.delta.ArtifactHits++
					continue
				}
			}
		}
		fresh = append(fresh, i)
		r.commFresh[proc] = true
	}
	results := make([]*comm.Analysis, len(fresh))
	forEach(len(fresh), 0, func(k int) error {
		proc := cc.IR.Procs[fresh[k]]
		results[k] = comm.BuildEvents(cc.Ctx, proc, cc.Sel)
		return nil
	})
	for k, i := range fresh {
		cc.Comm[cc.IR.Procs[i].Name] = results[k]
		r.delta.ArtifactMisses++
		r.store.MarkDirty(1)
	}
	return len(fresh) == 0, nil
}

// availability applies §7 elimination to freshly-built plans only: a
// thawed plan is already post-elimination and carries no dependence
// graphs to re-derive proofs from.
func (r *incrRun) availability() (bool, error) {
	cc := r.cc
	n := 0
	for _, proc := range cc.IR.Procs {
		if r.commFresh[proc] {
			comm.ApplyAvailability(cc.Ctx, cc.Sel, cc.Comm[proc.Name])
			n++
		}
	}
	return n == 0, nil
}

// writebackRed mirrors availability for write-back redundancy.
func (r *incrRun) writebackRed() (bool, error) {
	cc := r.cc
	n := 0
	for _, proc := range cc.IR.Procs {
		if r.commFresh[proc] {
			comm.ApplyWritebackElim(cc.Ctx, cc.Sel, cc.Comm[proc.Name])
			n++
		}
	}
	return n == 0, nil
}

// lower runs the cold validation, then freezes the now-final (post-
// elimination) communication plans of the procedures built this run.
func (r *incrRun) lower() (bool, error) {
	cc := r.cc
	if err := runLower(cc); err != nil {
		return false, err
	}
	for _, proc := range cc.IR.Procs {
		if !r.commFresh[proc] {
			continue
		}
		if fz, err := freezeComm(proc, cc.Comm[proc.Name]); err == nil {
			r.store.Put(artifactKey(artifactComm, r.fps.Env[proc]), fz, approxSize(fz))
		}
	}
	return false, nil
}

// verify replaces runVerify: clean procedures thaw their report
// fragments (with statement IDs relocated onto the fresh bodies); dirty
// ones are verified in parallel; the merge in procedure order makes the
// final report identical to a cold verify.Run.
func (r *incrRun) verify() (bool, error) {
	cc := r.cc
	in := cc.VerifyInput()
	frags := make([]*verify.Report, len(cc.IR.Procs))
	var fresh []int
	for i, proc := range cc.IR.Procs {
		if !r.dirty[proc] && !r.commFresh[proc] {
			key := artifactKey(artifactVerify, r.fps.Env[proc])
			if v, ok := r.store.Get(key); ok {
				if frag, err := thawVerify(proc, v.(*frozenVerify)); err == nil {
					frags[i] = frag
					r.delta.ArtifactHits++
					continue
				}
			}
		}
		fresh = append(fresh, i)
	}
	err := forEach(len(fresh), 0, func(k int) error {
		proc := cc.IR.Procs[fresh[k]]
		frag, err := verify.RunProc(in, proc)
		if err != nil {
			return err
		}
		frags[fresh[k]] = frag
		return nil
	})
	if err != nil {
		return false, err
	}
	for _, i := range fresh {
		proc := cc.IR.Procs[i]
		r.delta.ArtifactMisses++
		r.store.MarkDirty(1)
		fz := freezeVerify(proc, frags[i])
		r.store.Put(artifactKey(artifactVerify, r.fps.Env[proc]), fz, approxSize(fz))
	}
	rep := &verify.Report{}
	for _, frag := range frags {
		verify.Merge(rep, frag)
	}
	cc.Verify = rep
	return len(fresh) == 0, nil
}

// analyze replaces runAnalyze the same way verify replaces runVerify:
// clean procedures thaw their summary-plus-diagnostics fragments with
// statement IDs relocated onto the fresh bodies, dirty ones are
// analyzed in parallel, and the merge in procedure order is identical
// to a cold analysis.Run.
func (r *incrRun) analyze() (bool, error) {
	cc := r.cc
	in := buildAnalysisInput(cc)
	frags := make([]*analysis.Result, len(cc.IR.Procs))
	var fresh []int
	for i, proc := range cc.IR.Procs {
		if !r.dirty[proc] && !r.commFresh[proc] {
			key := artifactKey(artifactAnalyze, r.fps.Env[proc])
			if v, ok := r.store.Get(key); ok {
				fz := v.(*frozenAnalyze)
				if frag, err := thawAnalyze(proc, fz); err == nil {
					frags[i] = frag
					// Seed the clean procedure's interface so dirty
					// callers resolve their calls from the cache.
					in.SeedInterface(proc.Name, fz.Iface)
					r.delta.ArtifactHits++
					continue
				}
			}
		}
		fresh = append(fresh, i)
	}
	err := forEach(len(fresh), 0, func(k int) error {
		proc := cc.IR.Procs[fresh[k]]
		frag, err := analysis.RunProc(in, proc)
		if err != nil {
			return err
		}
		frags[fresh[k]] = frag
		return nil
	})
	if err != nil {
		return false, err
	}
	for _, i := range fresh {
		proc := cc.IR.Procs[i]
		r.delta.ArtifactMisses++
		r.store.MarkDirty(1)
		fz, err := freezeAnalyze(in, proc, frags[i])
		if err != nil {
			return false, err
		}
		r.store.Put(artifactKey(artifactAnalyze, r.fps.Env[proc]), fz, approxSize(fz))
	}
	res := &analysis.Result{}
	for _, frag := range frags {
		analysis.Merge(res, frag)
	}
	cc.Analysis = res
	return len(fresh) == 0, nil
}
