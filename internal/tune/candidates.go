package tune

import (
	"fmt"
	"sort"
	"strings"

	"dhpf/internal/hpf"
	"dhpf/internal/passes"
)

// Scheme names of a candidate's parallelization strategy.
const (
	// SchemeBlock is the compiled path: a P1×P2 BLOCK distribution of
	// the distributed dimensions, coarse-grain pipelined sweeps.
	SchemeBlock = "block"
	// SchemeTranspose is the PGI-style comparison point: 1-D z BLOCK
	// with full transposes around the z solve (bench mode only).
	SchemeTranspose = "transpose"
)

// Candidate is one point of the tuner's configuration space.
type Candidate struct {
	Scheme string `json:"scheme"`
	// Backend names the execution substrate ("mp", "shm", "hybrid");
	// empty means the message-passing default.  Block scheme only — the
	// hand-coded transpose runner is message-passing by construction.
	Backend string `json:"backend,omitempty"`
	// P1, P2 factor the processor count into the grid shape (block
	// scheme only; P1·P2 must equal Spec.Procs).
	P1 int `json:"p1,omitempty"`
	P2 int `json:"p2,omitempty"`
	// Grain is the coarse-grain pipelining strip width (block scheme).
	Grain int `json:"grain,omitempty"`
	// Disable lists compiler passes ablated for this candidate,
	// canonically sorted.
	Disable []string `json:"disable,omitempty"`
	// Extra binds swept source parameters (e.g. a BLOCK(B) block size).
	Extra map[string]int `json:"extra,omitempty"`
}

// Key is the canonical identity of the candidate: the tuner's final
// tie-break and the label used throughout the report trail.
func (c Candidate) Key() string {
	var b strings.Builder
	b.WriteString(c.Scheme)
	if c.Backend != "" && c.Backend != passes.BackendMP {
		b.WriteString(" " + c.Backend)
	}
	if c.Scheme == SchemeBlock {
		fmt.Fprintf(&b, " %dx%d g%d", c.P1, c.P2, c.Grain)
		if len(c.Disable) > 0 {
			b.WriteString(" -")
			b.WriteString(strings.Join(c.Disable, " -"))
		}
	}
	for _, k := range sortedKeys(c.Extra) {
		fmt.Fprintf(&b, " %s=%d", k, c.Extra[k])
	}
	return b.String()
}

// options builds the pass-pipeline option set the candidate encodes.
func (c Candidate) options() passes.Options {
	o := passes.DefaultOptions()
	if c.Backend != "" {
		o.Backend = c.Backend
	}
	if c.Grain > 0 {
		o.PipelineGrain = c.Grain
	}
	o.Disable = append([]string{}, c.Disable...)
	return o
}

// params merges the spec's base parameters with the candidate's grid
// shape and swept values.
func (c Candidate) params(s *Spec) map[string]int {
	p := map[string]int{}
	for k, v := range s.Params {
		p[k] = v
	}
	for k, v := range c.Extra {
		p[k] = v
	}
	if c.Scheme == SchemeBlock && s.GridParams[0] != "" {
		p[s.GridParams[0]] = c.P1
		p[s.GridParams[1]] = c.P2
	}
	return p
}

// enumerate produces the candidate list in a fixed, deterministic order:
// backends × grids × grains × ablations × sweep combinations, then the
// transpose comparison point (bench mode).
func enumerate(s *Spec) []Candidate {
	var out []Candidate
	sweeps := sweepCombos(s.Sweep)
	for _, backend := range s.Backends {
		for _, grid := range s.Grids {
			for _, g := range s.Grains {
				for _, abl := range s.Ablations {
					for _, ex := range sweeps {
						out = append(out, Candidate{
							Scheme:  SchemeBlock,
							Backend: backend,
							P1:      grid[0],
							P2:      grid[1],
							Grain:   g,
							Disable: canonDisable(abl),
							Extra:   ex,
						})
					}
				}
			}
		}
	}
	if s.Bench != "" && !s.NoTranspose {
		out = append(out, Candidate{Scheme: SchemeTranspose, Backend: passes.BackendMP})
	}
	return out
}

// allGrids lists every ordered factorization p1×p2 = procs.
func allGrids(procs int) [][2]int {
	var out [][2]int
	for p1 := 1; p1 <= procs; p1++ {
		if procs%p1 == 0 {
			out = append(out, [2]int{p1, procs / p1})
		}
	}
	return out
}

// sweepCombos expands a param→values map into the cartesian product of
// bindings, iterating keys in sorted order so the expansion is
// deterministic.  An empty sweep yields the single nil binding.
func sweepCombos(sweep map[string][]int) []map[string]int {
	if len(sweep) == 0 {
		return []map[string]int{nil}
	}
	keys := make([]string, 0, len(sweep))
	for k := range sweep {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	combos := []map[string]int{{}}
	for _, k := range keys {
		var next []map[string]int
		for _, base := range combos {
			for _, v := range sweep[k] {
				m := map[string]int{}
				for bk, bv := range base {
					m[bk] = bv
				}
				m[k] = v
				next = append(next, m)
			}
		}
		combos = next
	}
	return combos
}

func canonDisable(names []string) []string {
	if len(names) == 0 {
		return nil
	}
	out := append([]string{}, names...)
	sort.Strings(out)
	return out
}

func sortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// minFeasibleBlock is the smallest per-rank block extent the compiled
// executor's pipelined sweep schedule handles: below 3 points a
// distributed dimension has no interior strip between its halos and the
// wavefront exchange deadlocks, so the tuner refuses such grids up
// front rather than compiling and running them to find out.
const minFeasibleBlock = 3

// feasible reports whether the candidate can run at all, with the
// reason when it cannot.  Block-shape checks need the problem size, so
// they only apply in bench mode (a generic source that deadlocks is
// reported by the machine, as an error entry carrying the cycle).
func (s *Spec) feasible(c Candidate) (bool, string) {
	switch c.Scheme {
	case SchemeTranspose:
		if s.Procs > s.N {
			return false, fmt.Sprintf("transpose needs procs ≤ n (%d > %d)", s.Procs, s.N)
		}
	case SchemeBlock:
		if c.P1 < 1 || c.P2 < 1 || c.P1*c.P2 != s.Procs {
			return false, fmt.Sprintf("grid %dx%d does not tile %d procs", c.P1, c.P2, s.Procs)
		}
		if c.Backend == passes.BackendHybrid && c.P1 < 2 {
			// A hybrid layout groups ranks by their dim-0 coordinate; with
			// P1 = 1 there is one group and the candidate is the pure shm
			// point already enumerated.
			return false, fmt.Sprintf("hybrid layout needs P1 ≥ 2 (1x%d is pure shm)", c.P2)
		}
		if s.N > 0 {
			for _, p := range []int{c.P1, c.P2} {
				if p > 1 && hpf.DefaultBlockSize(s.N, p) < minFeasibleBlock {
					return false, fmt.Sprintf("block %d < %d points over %d procs (n=%d)",
						hpf.DefaultBlockSize(s.N, p), minFeasibleBlock, p, s.N)
				}
			}
		}
	}
	return true, ""
}
