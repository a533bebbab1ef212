package passes

import (
	"fmt"

	"dhpf/internal/verify"
)

// VerifyInput is the validator's input over the analyses the pipeline
// produced: the one place it is built, for the verify pass and every
// later re-verify.  The verify pass re-proves the four safety theorems
// (coverage, communication completeness, writeback soundness, pipeline
// legality) procedure by procedure; it is optional (Options.Disable
// "verify") but on by default — a pipeline bug should fail the compile,
// not the run.
func (cc *CompileContext) VerifyInput() verify.Input {
	reductions := map[int]bool{}
	for _, plans := range cc.Reductions {
		for _, r := range plans {
			reductions[r.Stmt.ID] = true
		}
	}
	return verify.Input{
		IR: cc.IR, Ctx: cc.Ctx, Sel: cc.Sel, Comm: cc.Comm,
		Reductions: reductions,
		Backend:    canonicalBackend(cc.Opt.Backend),
	}
}

// checkVerify is the pass invariant: a program that fails its own safety
// proof must not compile.  The first error diagnostics are inlined so the
// failure localizes the broken pass without re-running anything.
func checkVerify(cc *CompileContext) error {
	if cc.Verify == nil {
		return fmt.Errorf("no verification report produced")
	}
	errs := cc.Verify.Errors()
	if len(errs) == 0 {
		return nil
	}
	msg := fmt.Sprintf("program fails %d safety obligations", len(errs))
	for i, d := range errs {
		if i == 3 {
			msg += fmt.Sprintf("; … %d more", len(errs)-i)
			break
		}
		msg += "; " + d.String()
	}
	return fmt.Errorf("%s", msg)
}
