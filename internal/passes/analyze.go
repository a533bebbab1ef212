package passes

import (
	"fmt"

	"dhpf/internal/analysis"
)

// buildAnalysisInput assembles the static-analysis input from the
// compile context — the same facts the verifier reads.
func buildAnalysisInput(cc *CompileContext) *analysis.Input {
	return &analysis.Input{IR: cc.IR, Ctx: cc.Ctx, Sel: cc.Sel, Comm: cc.Comm, Grid: cc.Grid}
}

// runAnalyze executes the static-analysis pass: symbolic loop summaries
// and distributed-array dataflow over the post-pipeline facts.  The
// result is stored on the context; Predict (the cost oracle) is run on
// demand by the surfaces, not here, because its output depends on
// nothing the pipeline caches.
func runAnalyze(cc *CompileContext) error {
	res, err := analysis.Run(buildAnalysisInput(cc))
	if err != nil {
		return err
	}
	cc.Analysis = res
	return nil
}

// checkAnalyze is deliberately lenient, unlike checkVerify: dataflow
// ERROR diagnostics describe properties of the *program* (reading unset
// distributed storage), not of the compiler, so they must not fail the
// compile — the program still executes deterministically.  The corpus
// cleanliness gate lives in `dhpfc -analyze` (nonzero exit on ERROR),
// which CI runs over testdata.
func checkAnalyze(cc *CompileContext) error {
	if cc.Analysis == nil {
		return fmt.Errorf("no analysis result produced")
	}
	if len(cc.Analysis.Procs) != len(cc.IR.Procs) {
		return fmt.Errorf("analysis covers %d of %d procedures", len(cc.Analysis.Procs), len(cc.IR.Procs))
	}
	return nil
}
