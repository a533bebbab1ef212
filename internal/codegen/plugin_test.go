package codegen

// Plugin-path tests: emit → go build -buildmode=plugin → load →
// register → execute, plus the build cache.  Skipped where plugins
// cannot work (race-instrumented binary, unsupported OS, no
// toolchain); the parity suite still covers the native tier there via
// the compiled-in gen corpus.

import (
	"math"
	"testing"

	"dhpf/internal/mpsim"
	"dhpf/internal/spmd"
)

// pluginSource is deliberately outside the emission corpus, so its
// kernels are never pre-registered by the gen package.
const pluginSource = `
program plg
param N = 40
!hpf$ processors procs(4)
!hpf$ template tm(N, N)
!hpf$ align a with tm(d0, d1)
!hpf$ align b with tm(d0, d1)
!hpf$ distribute tm(*, BLOCK) onto procs
subroutine main()
  real a(0:N-1, 0:N-1)
  real b(0:N-1, 0:N-1)
  do j = 0, N-1
    do i = 0, N-1
      a(i,j) = 0.75 * i + 1.25 * j
    enddo
  enddo
  do j = 1, N-2
    do i = 1, N-2
      b(i,j) = 0.2 * (a(i-1,j) + a(i+1,j) + a(i,j-1) + a(i,j+1) + a(i,j))
    enddo
  enddo
end
`

func requirePlugins(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("plugin builds are slow")
	}
	if reason := pluginUnsupported(); reason != "" {
		t.Skip(reason)
	}
}

// TestPluginBuildLoadAndCache drives buildAndLoad through a fresh build
// and a cache hit, and checks the loaded kernels cover every unit.
func TestPluginBuildLoadAndCache(t *testing.T) {
	requirePlugins(t)
	prog, err := spmd.CompileSource(pluginSource, nil, spmd.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	units := SelectUnits(prog, -1)
	if len(units) == 0 {
		t.Fatal("no kernel units extracted")
	}
	src := EmitPlugin(units)
	opt := Options{CacheDir: t.TempDir()}

	kernels, cacheHit, err := buildAndLoad(src, prog.Opt, opt)
	if err != nil {
		t.Fatalf("fresh build: %v", err)
	}
	if cacheHit {
		t.Fatal("fresh build reported a cache hit")
	}
	for _, u := range units {
		if kernels[u.Fingerprint()] == nil {
			t.Fatalf("plugin missing kernel for unit %s", u.Fingerprint())
		}
	}

	if _, cacheHit, err = buildAndLoad(src, prog.Opt, opt); err != nil || !cacheHit {
		t.Fatalf("second load: hit=%v err=%v, want cache hit", cacheHit, err)
	}
}

// TestEnableNativeBuildsAndMatches runs the full ladder end to end:
// EnableNative builds a plugin for a non-corpus program, and the
// resulting codegen execution is bit-identical to the interpreter
// while actually invoking native kernels.
func TestEnableNativeBuildsAndMatches(t *testing.T) {
	requirePlugins(t)
	prog, err := spmd.CompileSource(pluginSource, nil, spmd.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := EnableNative(prog, Options{MinPhaseFlops: -1, CacheDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Fallback != "" {
		t.Fatalf("unexpected fallback: %s", rep.String())
	}
	if rep.Built+rep.Registered != rep.Selected || rep.Selected == 0 {
		t.Fatalf("ladder did not cover all units: %s", rep.String())
	}

	before := spmd.KernelInvocations()
	rc, err := prog.ExecuteEngine(mpsim.SP2Config(4), spmd.EngineCodegen)
	if err != nil {
		t.Fatal(err)
	}
	if spmd.KernelInvocations() == before {
		t.Fatal("plugin kernels registered but never invoked")
	}
	ri, err := prog.ExecuteEngine(mpsim.SP2Config(4), spmd.EngineInterp)
	if err != nil {
		t.Fatal(err)
	}
	ga, _, _, _ := rc.Global("b")
	gb, _, _, _ := ri.Global("b")
	for k := range ga {
		if math.Float64bits(ga[k]) != math.Float64bits(gb[k]) {
			t.Fatalf("b[%d]: codegen %v, interp %v", k, ga[k], gb[k])
		}
	}
}

// TestPluginKeySensitivity: the cache key must move with any input —
// source text, pipeline options, ABI — or stale artifacts would alias.
func TestPluginKeySensitivity(t *testing.T) {
	base := pluginKey("src-a", spmd.DefaultOptions())
	if pluginKey("src-b", spmd.DefaultOptions()) == base {
		t.Fatal("key ignores emitted source")
	}
	opt := spmd.DefaultOptions()
	opt.PipelineGrain = 32
	if pluginKey("src-a", opt) == base {
		t.Fatal("key ignores pipeline options")
	}
	if pluginKey("src-a", spmd.DefaultOptions()) != base {
		t.Fatal("key is not deterministic")
	}
}
