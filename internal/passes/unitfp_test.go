package passes

import (
	"strings"
	"testing"

	"dhpf/internal/cp"
	"dhpf/internal/hpf"
	"dhpf/internal/parser"
)

// fpSrc is a three-unit program: main calls both leaves, the leaves are
// independent of each other.
const fpSrc = `
program fp
param N = 32
!hpf$ processors procs(2)
!hpf$ template tm(N)
!hpf$ align v with tm(d0)
!hpf$ distribute tm(BLOCK) onto procs

subroutine scale(v)
  real v(0:N-1)
  do i = 1, N-2
    v(i) = v(i) * 0.5
  enddo
end

subroutine smooth(v)
  real v(0:N-1)
  do i = 1, N-2
    v(i) = 0.25*(v(i-1) + v(i+1))
  enddo
end

subroutine main()
  real v(0:N-1)
  do t = 1, 4
    call scale(v)
    call smooth(v)
  enddo
end
`

// fpsFor parses and fingerprints a source, returning the per-unit and
// per-environment hashes keyed by procedure name.
func fpsFor(t *testing.T, src string, opt Options) (unit, env map[string]string) {
	t.Helper()
	prog, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	bind, err := hpf.Bind(prog, nil)
	if err != nil {
		t.Fatalf("bind: %v", err)
	}
	ctx, err := cp.NewContext(prog, bind)
	if err != nil {
		t.Fatalf("context: %v", err)
	}
	fps := fingerprintUnits(ctx, opt)
	unit, env = map[string]string{}, map[string]string{}
	for _, p := range prog.Procs {
		unit[p.Name] = fps.Unit[p]
		env[p.Name] = fps.Env[p]
	}
	return unit, env
}

// Editing one procedure changes only its own unit fingerprint, and the
// environment fingerprints of exactly it and its callers.
func TestFingerprintEditIsolation(t *testing.T) {
	unit0, env0 := fpsFor(t, fpSrc, DefaultOptions())
	edited := strings.Replace(fpSrc, "0.25*(v(i-1) + v(i+1))", "0.26*(v(i-1) + v(i+1))", 1)
	unit1, env1 := fpsFor(t, edited, DefaultOptions())

	if unit1["smooth"] == unit0["smooth"] {
		t.Error("edited smooth kept its unit fingerprint")
	}
	if unit1["scale"] != unit0["scale"] || unit1["main"] != unit0["main"] {
		t.Error("editing smooth changed another procedure's unit fingerprint")
	}
	if env1["smooth"] == env0["smooth"] {
		t.Error("edited smooth kept its env fingerprint")
	}
	if env1["main"] == env0["main"] {
		t.Error("main calls smooth; its env fingerprint must change with the callee")
	}
	if env1["scale"] != env0["scale"] {
		t.Error("scale does not depend on smooth; its env fingerprint changed")
	}
}

// Renaming one procedure (and its call sites) leaves unrelated
// procedures' fingerprints unchanged.
func TestFingerprintRenameIsolation(t *testing.T) {
	_, env0 := fpsFor(t, fpSrc, DefaultOptions())
	renamed := strings.ReplaceAll(fpSrc, "smooth", "blur")
	unit1, env1 := fpsFor(t, renamed, DefaultOptions())

	if _, ok := unit1["blur"]; !ok {
		t.Fatal("renamed procedure missing")
	}
	if env1["scale"] != env0["scale"] {
		t.Error("renaming smooth changed scale's env fingerprint")
	}
	if env1["main"] == env0["main"] {
		t.Error("main's call target was renamed; its env fingerprint must change")
	}
}

// Reordering procedure definitions changes nothing: fingerprints are
// content hashes, not position hashes — even though reordering renumbers
// every statement ID in the program.
func TestFingerprintReorderInvariance(t *testing.T) {
	unit0, env0 := fpsFor(t, fpSrc, DefaultOptions())
	scaleIdx := strings.Index(fpSrc, "subroutine scale")
	smoothIdx := strings.Index(fpSrc, "subroutine smooth")
	mainIdx := strings.Index(fpSrc, "subroutine main")
	reordered := fpSrc[:scaleIdx] + fpSrc[smoothIdx:mainIdx] + fpSrc[scaleIdx:smoothIdx] + fpSrc[mainIdx:]
	unit1, env1 := fpsFor(t, reordered, DefaultOptions())

	for name := range unit0 {
		if unit1[name] != unit0[name] {
			t.Errorf("proc %s: unit fingerprint changed under reordering", name)
		}
		if env1[name] != env0[name] {
			t.Errorf("proc %s: env fingerprint changed under reordering", name)
		}
	}
}

// Whitespace and comment edits are invisible: the canonical rendering
// hashes the parsed form, not the source text.
func TestFingerprintWhitespaceInvariance(t *testing.T) {
	unit0, env0 := fpsFor(t, fpSrc, DefaultOptions())
	noisy := strings.Replace(fpSrc, "v(i) = v(i) * 0.5",
		"! a comment that changes nothing\n      v(i)   =   v(i)*0.5", 1)
	noisy = strings.ReplaceAll(noisy, "subroutine main()", "\n\nsubroutine main()")
	unit1, env1 := fpsFor(t, noisy, DefaultOptions())

	for name := range unit0 {
		if unit1[name] != unit0[name] {
			t.Errorf("proc %s: unit fingerprint changed under whitespace/comment edit", name)
		}
		if env1[name] != env0[name] {
			t.Errorf("proc %s: env fingerprint changed under whitespace/comment edit", name)
		}
	}
}

// Compilation options are part of every environment: an ablation must
// never reuse artifacts produced under different options.
func TestFingerprintOptionsSensitivity(t *testing.T) {
	_, env0 := fpsFor(t, fpSrc, DefaultOptions())
	_, env1 := fpsFor(t, fpSrc, DefaultOptions().WithDisabled(PassAvailability))
	for name := range env0 {
		if env1[name] == env0[name] {
			t.Errorf("proc %s: env fingerprint ignores the Disable list", name)
		}
	}
}

// A parameter override reaches every unit through the header.
func TestFingerprintParamSensitivity(t *testing.T) {
	_, env0 := fpsFor(t, fpSrc, DefaultOptions())
	_, env1 := fpsFor(t, strings.Replace(fpSrc, "param N = 32", "param N = 48", 1), DefaultOptions())
	for name := range env0 {
		if env1[name] == env0[name] {
			t.Errorf("proc %s: env fingerprint ignores a parameter change", name)
		}
	}
}
