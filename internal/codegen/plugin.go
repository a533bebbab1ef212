package codegen

// plugin.go builds emitted kernel sources into Go plugins and loads
// them.  Builds are cached content-addressed: the .so file name is the
// hash of (kernel ABI, pipeline-option fingerprint, emitted source,
// toolchain version), so recompiling the same program with the same
// options reuses the artifact, and any change to emission or options
// misses cleanly.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"plugin"
	"runtime"
	"sync"

	"dhpf/internal/spmd"
)

// loadedKernels caches kernel tables by content key.  The Go runtime
// refuses to load a second .so with the same module path, and the
// module path is derived from the key, so within one process the first
// successful load must serve every later request for that key — even
// from a different cache directory.
var (
	loadedMu      sync.Mutex
	loadedKernels = map[string]map[string]spmd.KernelFunc{}
)

func rememberLoaded(key string, kernels map[string]spmd.KernelFunc) {
	loadedMu.Lock()
	loadedKernels[key] = kernels
	loadedMu.Unlock()
}

// pluginUnsupported reports why this process cannot build and load
// plugins, or "" when it can.
func pluginUnsupported() string {
	if raceEnabled {
		return "host binary is race-instrumented (plugin runtime would mismatch)"
	}
	switch runtime.GOOS {
	case "linux", "darwin", "freebsd":
	default:
		return fmt.Sprintf("buildmode=plugin is unsupported on %s", runtime.GOOS)
	}
	if _, err := exec.LookPath("go"); err != nil {
		return "go toolchain not found in PATH"
	}
	return ""
}

// pluginKey is the content address of a build: every input that could
// change the produced kernels participates.
func pluginKey(src string, compileOpt spmd.Options) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n%s\n%s\n", spmd.KernelABI, compileOpt.Fingerprint(), runtime.Version())
	h.Write([]byte(src))
	return hex.EncodeToString(h.Sum(nil))
}

// cacheDir resolves the plugin cache directory, creating it.
func cacheDir(opt Options) (string, error) {
	dir := opt.CacheDir
	if dir == "" {
		if base, err := os.UserCacheDir(); err == nil {
			dir = filepath.Join(base, "dhpf-codegen")
		} else {
			dir = filepath.Join(os.TempDir(), "dhpf-codegen")
		}
	}
	return dir, os.MkdirAll(dir, 0o777)
}

// buildAndLoad turns emitted plugin source into a fingerprint → kernel
// map: cache-directory hit, then a real `go build -buildmode=plugin` in
// a throwaway module.  The boolean reports whether the .so came from the
// cache.
func buildAndLoad(src string, compileOpt spmd.Options, opt Options) (map[string]spmd.KernelFunc, bool, error) {
	key := pluginKey(src, compileOpt)
	loadedMu.Lock()
	if kernels, ok := loadedKernels[key]; ok {
		loadedMu.Unlock()
		return kernels, true, nil
	}
	loadedMu.Unlock()
	dir, err := cacheDir(opt)
	if err != nil {
		return nil, false, fmt.Errorf("plugin cache dir: %v", err)
	}
	soPath := filepath.Join(dir, key+".so")
	if _, err := os.Stat(soPath); err == nil {
		kernels, err := loadPlugin(soPath)
		if err == nil {
			rememberLoaded(key, kernels)
		}
		return kernels, true, err
	}
	if err := buildPlugin(src, key, dir, soPath); err != nil {
		return nil, false, err
	}
	kernels, err := loadPlugin(soPath)
	if err == nil {
		rememberLoaded(key, kernels)
	}
	return kernels, false, err
}

// buildPlugin compiles src in a fresh single-file module named after
// the content key (unique module paths keep multiple loaded plugins
// distinct in one process) and moves the .so into place atomically.
func buildPlugin(src, key, dir, soPath string) error {
	work, err := os.MkdirTemp(dir, "build-")
	if err != nil {
		return fmt.Errorf("plugin workdir: %v", err)
	}
	defer os.RemoveAll(work)
	mod := fmt.Sprintf("module dhpfkernels_%s\n\ngo 1.21\n", key[:12])
	if err := os.WriteFile(filepath.Join(work, "go.mod"), []byte(mod), 0o666); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(work, "main.go"), []byte(src), 0o666); err != nil {
		return err
	}
	out := filepath.Join(work, "kernels.so")
	cmd := exec.Command("go", "build", "-buildmode=plugin", "-o", out, ".")
	cmd.Dir = work
	if msg, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("plugin build failed: %v: %s", err, msg)
	}
	// Rename within the cache directory is atomic: concurrent builders
	// of the same key race benignly to an identical artifact.
	if err := os.Rename(out, soPath); err != nil {
		return fmt.Errorf("plugin install: %v", err)
	}
	return nil
}

// loadPlugin opens a built plugin and returns its kernel table.
// plugin.Open caches by path, so reloading a cache hit in the same
// process returns the already-loaded module.
func loadPlugin(soPath string) (map[string]spmd.KernelFunc, error) {
	p, err := plugin.Open(soPath)
	if err != nil {
		return nil, fmt.Errorf("plugin open: %v", err)
	}
	sym, err := p.Lookup("Kernels")
	if err != nil {
		return nil, fmt.Errorf("plugin lookup: %v", err)
	}
	// The table type is unnamed on both sides of the plugin boundary,
	// so type identity is structural and survives separate builds.
	tab, ok := sym.(*[]struct {
		Unit string
		Fn   func([]int, []bool, []float64, []bool, [][]float64, []int, float64) float64
	})
	if !ok {
		return nil, fmt.Errorf("plugin Kernels has wrong type %T (ABI %s mismatch)", sym, spmd.KernelABI)
	}
	kernels := make(map[string]spmd.KernelFunc, len(*tab))
	for _, e := range *tab {
		kernels[e.Unit] = e.Fn
	}
	return kernels, nil
}
