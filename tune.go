package dhpf

import (
	"context"

	"dhpf/internal/tune"
)

// Tuner runs auto-tuning searches over shared memoization caches:
// repeated Tune calls on the same source reuse full evaluations and
// serial reference runs (the memo counters in TuneResult show it).
type Tuner struct {
	inner *tune.Tuner
}

// NewTuner returns a tuner with fresh caches.  The compile service
// holds one per server; Tune (package level) shares one per process.
func NewTuner() *Tuner { return &Tuner{inner: tune.New()} }

// Tune searches the configuration space of source — processor-grid
// shapes, distribution schemes, pipeline granularities, pass ablations,
// swept parameters — for the lowest-cost configuration, using the
// two-tier protocol of internal/tune: a dry-run screen over every
// candidate at the target problem size, then compile + execute + verify
// for the top-K survivors with deterministic early pruning.  The result
// is the ranked leaderboard with the search trail; the winner's Params
// and Options replay directly through Compile.
//
// The search is deterministic: a fixed spec yields an identical
// leaderboard across runs, memo hits or not.  On a non-nil error the
// result may still carry the partial leaderboard for diagnostics.
func (t *Tuner) Tune(ctx context.Context, source string, opt TuneOptions) (*TuneResult, error) {
	res, err := t.inner.Run(ctx, tune.Spec{
		Source:       source,
		Params:       opt.Params,
		Bench:        opt.Bench,
		N:            opt.N,
		Steps:        opt.Steps,
		TargetN:      opt.TargetN,
		TargetSteps:  opt.TargetSteps,
		Procs:        opt.Procs,
		GridParams:   opt.GridParams,
		Grids:        opt.Grids,
		Grains:       opt.Grains,
		Ablations:    opt.Ablations,
		Sweep:        opt.Sweep,
		Backends:     opt.Backends,
		NoTranspose:  opt.NoTranspose,
		TopK:         opt.TopK,
		MaxScreen:    opt.MaxScreen,
		Seed:         opt.Seed,
		Workers:      opt.Workers,
		PruneFactor:  opt.PruneFactor,
		SkipVerify:   opt.SkipVerify,
		VerifyArrays: opt.VerifyArrays,
	})
	if res == nil {
		return nil, err
	}
	return convertTuneResult(res), err
}

var defaultTuner = NewTuner()

// Tune runs a search on the process-wide shared tuner (see
// Tuner.Tune).
func Tune(ctx context.Context, source string, opt TuneOptions) (*TuneResult, error) {
	return defaultTuner.Tune(ctx, source, opt)
}

func convertTuneResult(res *tune.Result) *TuneResult {
	out := &TuneResult{
		Entries: make([]TuneEntry, len(res.Entries)),
		Counters: TuneCounters{
			Candidates:   res.Counters.Candidates,
			Screened:     res.Counters.Screened,
			Infeasible:   res.Counters.Infeasible,
			FullEvals:    res.Counters.FullEvals,
			Pruned:       res.Counters.Pruned,
			MemoHits:     res.Counters.MemoHits,
			MemoMisses:   res.Counters.MemoMisses,
			ScreenWallNS: res.Counters.ScreenWall.Nanoseconds(),
			FullWallNS:   res.Counters.FullWall.Nanoseconds(),
		},
		Trail: res.Trail,
	}
	for i := range res.Entries {
		out.Entries[i] = convertTuneEntry(&res.Entries[i])
	}
	if res.Winner != nil && len(out.Entries) > 0 {
		out.Winner = &out.Entries[0]
	}
	return out
}

func convertTuneEntry(e *tune.Entry) TuneEntry {
	te := TuneEntry{
		Key:            e.Key(),
		Scheme:         e.Scheme,
		Backend:        e.Backend,
		P1:             e.P1,
		P2:             e.P2,
		Grain:          e.Grain,
		Disable:        e.Disable,
		Extra:          e.Extra,
		Rank:           e.Rank,
		Status:         e.Status,
		ScreenSeconds:  e.Screen,
		SimSeconds:     e.Sim,
		SimMessages:    e.Msgs,
		SimBytes:       e.Bytes,
		MaxRelErr:      e.MaxRelErr,
		Verified:       e.Verified,
		ComparedArrays: e.ComparedArrays,
		Cached:         e.Cached,
		Note:           e.Note,
		Params:         e.Params,
	}
	if e.Options != nil {
		te.Options = RequestOptionsFrom(*e.Options)
	}
	return te
}
