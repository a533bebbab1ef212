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

// pipelineRun is the per-compile state of the one pass scheduler.  Its
// store memoizes per-procedure artifacts across compiles; a nil store
// means nothing is stored and nothing kept — no fingerprint is computed,
// no artifact is fetched, frozen or put, and every procedure is dirty.
type pipelineRun struct {
	store *cache.ArtifactStore
	fps   *unitFingerprints
	// frozenSel holds the selection artifacts of the clean procedures;
	// a procedure without one is dirty — its environment changed since
	// the artifacts were frozen, the store evicted them, or there is no
	// store.
	frozenSel map[*ir.Procedure]*frozenSel
	// selOrder is the bottom-up call-graph order the selection phases
	// iterate; selThawed marks the procedures whose frozen selection was
	// installed (the selection phases skip them), and selFrozen latches
	// the one-shot freeze of the others' finished state at the
	// pre-distribution boundary.
	selOrder  []*ir.Procedure
	selThawed map[*ir.Procedure]bool
	selFrozen bool
	// commThawed marks procedures whose communication plan was thawed
	// rather than built this run; the elimination phases skip them, and
	// only the others are frozen at lower time.
	commThawed map[*ir.Procedure]bool
	delta      Delta
	// cached is set by a pass body whose per-procedure work the store
	// served entirely; it becomes the pass's Stat.Cached.
	cached bool
}

// RunIncremental is RunCtx with artifact memoization: per-procedure CP
// selections, communication plans, verification fragments and analysis
// fragments are reused from the store when the procedure's environment
// fingerprint is unchanged, and only dirty procedures are re-analyzed.
// The passes are the ones RunCtx runs, so the resulting CompileContext
// is byte-for-byte identical to a cold RunCtx of the same source:
// reports, node programs and verification diagnostics cannot tell the
// difference.  A nil store is RunCtx: every procedure is dirty.
func RunIncremental(cc *CompileContext, store *cache.ArtifactStore) (*Delta, error) {
	return RunIncrementalCtx(context.Background(), cc, store)
}

// RunIncrementalCtx is RunIncremental with cancellation at pass
// boundaries, mirroring RunCtx.
func RunIncrementalCtx(ctx context.Context, cc *CompileContext, store *cache.ArtifactStore) (*Delta, error) {
	r := &pipelineRun{store: store}
	if err := r.execute(ctx, cc); err != nil {
		return nil, err
	}
	d := r.delta
	d.Procs = len(cc.IR.Procs)
	return &d, nil
}

// miss counts an artifact computed this run.
func (r *pipelineRun) miss() {
	r.delta.ArtifactMisses++
	if r.store != nil {
		r.store.MarkDirty(1)
	}
}

// dependence builds the CP context; fingerprints decide which procedures
// are dirty — those with no selection artifact under their environment
// — and only their dependences are derived, in parallel, so their cost
// is this pass's row and not the first reader's.  A clean procedure's
// are derived later only if a pass reads them: loop distribution, for a
// procedure whose thawed selection marked a pair.
func (r *pipelineRun) dependence(cc *CompileContext) error {
	if err := newContext(cc); err != nil {
		return err
	}
	dirty := cc.IR.Procs
	if r.store != nil {
		r.fps = fingerprintUnits(cc.Ctx, cc.Opt)
		r.frozenSel = map[*ir.Procedure]*frozenSel{}
		r.selThawed = map[*ir.Procedure]bool{}
		r.commThawed = map[*ir.Procedure]bool{}
		dirty = nil
		for _, proc := range cc.IR.Procs {
			if v, ok := r.store.Get(artifactKey(artifactSel, r.fps.Env[proc])); ok {
				r.frozenSel[proc] = v.(*frozenSel)
				continue
			}
			dirty = append(dirty, proc)
		}
	}
	r.delta.Dirty = len(dirty)
	r.delta.DirtyProcs = make([]string, len(dirty))
	for k, proc := range dirty {
		r.delta.DirtyProcs[k] = proc.Name
	}
	forEach(len(dirty), func(k int) error {
		cc.Ctx.Deps(dirty[k])
		return nil
	})
	r.cached = len(dirty) == 0
	return nil
}

// selThawedAll reports whether every procedure's selection was thawed,
// which makes the selection passes no-ops.
func (r *pipelineRun) selThawedAll() bool { return len(r.selThawed) == len(r.selOrder) }

// skipSel is the skip predicate the selection phases take: a procedure
// is skipped when its frozen selection thawed.
func (r *pipelineRun) skipSel(p *ir.Procedure) bool { return r.selThawed[p] }

// cpSelect installs the clean procedures' frozen post-§6 selection state
// (CPs, entry CP, marked pairs, decision notes); the base selection
// search runs only for the others.  The propagation and interprocedural
// phases below are restricted the same way, so for a fully-clean
// program all four selection passes are no-ops over thawed state.
func (r *pipelineRun) cpSelect(cc *CompileContext) error {
	order, err := cc.Ctx.Callees()
	if err != nil {
		return err
	}
	r.selOrder = order
	sel := cp.NewSelection()
	cc.Sel = sel
	for pi, proc := range order {
		if fz := r.frozenSel[proc]; fz != nil {
			if err := thawSel(proc, pi, sel, fz); err == nil {
				r.selThawed[proc] = true
				r.delta.ArtifactHits++
				continue
			}
		}
		r.miss()
	}
	if err := cp.SelectBase(cc.Ctx, sel, cc.Opt.CP, r.skipSel); err != nil {
		return err
	}
	r.cached = r.selThawedAll()
	return refuseUndistributed(cc)
}

// newProp propagates §4.1 through the procedures selected this run
// (thawed selections are already post-propagation).
func (r *pipelineRun) newProp(cc *CompileContext) error {
	r.cached = r.selThawedAll()
	return cp.PropagateNewArrays(cc.Ctx, cc.Sel, cc.Opt.CP, r.skipSel)
}

// localize mirrors newProp for §4.2.
func (r *pipelineRun) localize(cc *CompileContext) error {
	r.cached = r.selThawedAll()
	return cp.PropagateLocalize(cc.Ctx, cc.Sel, cc.Opt.CP, r.skipSel)
}

// interproc runs §6 for the procedures selected this run; thawed ones
// republish their entry CPs into ctx.EntryCPs at their bottom-up turn,
// so callers selected this run translate against them.
func (r *pipelineRun) interproc(cc *CompileContext) error {
	r.cached = r.selThawedAll()
	return cp.SelectInterproc(cc.Ctx, cc.Sel, r.skipSel)
}

// beforeDistribution runs a whole-program pass after storing the
// finished selection state of the procedures selected this run.  It is
// the first of loopdist and reductions (mandatory, so the freeze does
// not depend on whether loopdist is ablated) that freezes: that is the
// last moment the pre-distribution statement walk — the selection's
// relocation anchor — is computable.
func (r *pipelineRun) beforeDistribution(run func(*CompileContext) error) func(*CompileContext) error {
	return func(cc *CompileContext) error {
		if r.store != nil && !r.selFrozen {
			r.selFrozen = true
			for pi, proc := range r.selOrder {
				if !r.selThawed[proc] {
					fz := freezeSel(proc, pi, cc.Sel)
					r.store.Put(artifactKey(artifactSel, r.fps.Env[proc]), fz, approxSize(fz))
				}
			}
		}
		return run(cc)
	}
}

// commPlan thaws the clean procedures' finished (post-elimination)
// plans; the others' events are built in parallel.
func (r *pipelineRun) commPlan(cc *CompileContext) error {
	cc.Comm = make(map[string]*comm.Analysis, len(cc.IR.Procs))
	fresh := make([]*ir.Procedure, 0, len(cc.IR.Procs))
	for _, proc := range cc.IR.Procs {
		if r.frozenSel[proc] != nil {
			key := artifactKey(artifactComm, r.fps.Env[proc])
			if v, ok := r.store.Get(key); ok {
				if a, err := thawComm(proc, v.(*frozenComm)); err == nil {
					cc.Comm[proc.Name] = a
					r.commThawed[proc] = true
					r.delta.ArtifactHits++
					continue
				}
			}
		}
		fresh = append(fresh, proc)
	}
	results := make([]*comm.Analysis, len(fresh))
	forEach(len(fresh), func(k int) error {
		results[k] = comm.BuildEvents(cc.Ctx, fresh[k], cc.Sel)
		return nil
	})
	for k, proc := range fresh {
		cc.Comm[proc.Name] = results[k]
		r.miss()
	}
	r.cached = len(fresh) == 0
	return nil
}

// eliminate applies an elimination phase (§7 availability or write-back
// redundancy) to the plans built this run: a thawed plan is already
// post-elimination and carries no dependence graphs to re-derive proofs
// from.
func (r *pipelineRun) eliminate(apply func(*cp.Context, *cp.Selection, *comm.Analysis)) func(*CompileContext) error {
	return func(cc *CompileContext) error {
		r.cached = true
		for _, proc := range cc.IR.Procs {
			if !r.commThawed[proc] {
				apply(cc.Ctx, cc.Sel, cc.Comm[proc.Name])
				r.cached = false
			}
		}
		return nil
	}
}

// lower runs the whole-program validation, then freezes the now-final
// (post-elimination) communication plans of the procedures built this
// run.
func (r *pipelineRun) lower(cc *CompileContext) error {
	if err := runLower(cc); err != nil || r.store == nil {
		return err
	}
	for _, proc := range cc.IR.Procs {
		if r.commThawed[proc] {
			continue
		}
		if fz, err := freezeComm(proc, cc.Comm[proc.Name]); err == nil {
			r.store.Put(artifactKey(artifactComm, r.fps.Env[proc]), fz, approxSize(fz))
		}
	}
	return nil
}

// verify thaws the clean procedures' report fragments (with statement
// IDs relocated onto the fresh bodies) and verifies the others in
// parallel; the merge in procedure order makes the final report
// identical to a whole-program verify.Run.
func (r *pipelineRun) verify(cc *CompileContext) error {
	in := cc.VerifyInput()
	frags := make([]*verify.Report, len(cc.IR.Procs))
	fresh := make([]int, 0, len(cc.IR.Procs))
	for i, proc := range cc.IR.Procs {
		if r.commThawed[proc] {
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
	err := forEach(len(fresh), func(k int) error {
		frag, err := verify.RunProc(in, cc.IR.Procs[fresh[k]])
		frags[fresh[k]] = frag
		return err
	})
	if err != nil {
		return err
	}
	for _, i := range fresh {
		r.miss()
		if r.store != nil {
			proc := cc.IR.Procs[i]
			fz := freezeVerify(proc, frags[i])
			r.store.Put(artifactKey(artifactVerify, r.fps.Env[proc]), fz, approxSize(fz))
		}
	}
	rep := &verify.Report{}
	for _, frag := range frags {
		verify.Merge(rep, frag)
	}
	cc.Verify = rep
	r.cached = len(fresh) == 0
	return nil
}

// analyze is verify's twin for static analysis: clean procedures thaw
// their summary-plus-diagnostics fragments with statement IDs relocated
// onto the fresh bodies, the others are analyzed in parallel, and the
// merge in procedure order is identical to a whole-program analysis.Run.
func (r *pipelineRun) analyze(cc *CompileContext) error {
	in := buildAnalysisInput(cc)
	frags := make([]*analysis.Result, len(cc.IR.Procs))
	fresh := make([]int, 0, len(cc.IR.Procs))
	for i, proc := range cc.IR.Procs {
		if r.commThawed[proc] {
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
	err := forEach(len(fresh), func(k int) error {
		frag, err := analysis.RunProc(in, cc.IR.Procs[fresh[k]])
		frags[fresh[k]] = frag
		return err
	})
	if err != nil {
		return err
	}
	for _, i := range fresh {
		r.miss()
		if r.store != nil {
			proc := cc.IR.Procs[i]
			fz, err := freezeAnalyze(in, proc, frags[i])
			if err != nil {
				return err
			}
			r.store.Put(artifactKey(artifactAnalyze, r.fps.Env[proc]), fz, approxSize(fz))
		}
	}
	res := &analysis.Result{}
	for _, frag := range frags {
		analysis.Merge(res, frag)
	}
	cc.Analysis = res
	r.cached = len(fresh) == 0
	return nil
}
