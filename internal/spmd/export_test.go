package spmd

import "dhpf/internal/mpsim"

// ExecuteUnbound is ExecuteEngine with no kernel unit bound: a compiled
// engine then runs every nest on its checked closures, the path a
// precheck bail takes.  For the external tests of this package.
func (p *Program) ExecuteUnbound(cfg mpsim.Config, engine Engine) (*ExecResult, error) {
	return p.execute(cfg, engine, false)
}

// RequireSameRun is the bit-for-bit run comparison of engine_test.go.
var RequireSameRun = requireSameRun
