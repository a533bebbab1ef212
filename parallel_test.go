package dhpf

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"dhpf/internal/nas"
	"dhpf/internal/spmd"
)

// TestCompileParallel hammers the public API from many goroutines: the
// compile service shares *Program values across requests, so Compile,
// Run, Report and NodeProgram must all be safe to call concurrently.
// Run under -race this is the library-level half of the dhpfd
// concurrency guarantee.
func TestCompileParallel(t *testing.T) {
	// Serial baseline to compare every concurrent result against.
	base, err := Compile(quickSrc, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := base.Run(SP2Machine(base.Ranks()))
	if err != nil {
		t.Fatal(err)
	}
	baseReport := base.Report()
	baseNode0 := base.NodeProgram(0)
	baseFP := Fingerprint(quickSrc, nil, DefaultOptions())

	const goroutines = 16
	var wg sync.WaitGroup
	errc := make(chan error, 2*goroutines)

	// Half the goroutines compile-and-run fresh programs.
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var prog *Program
			var err error
			if g%2 == 0 {
				prog, err = Compile(quickSrc, nil, DefaultOptions())
			} else {
				prog, err = CompileCtx(context.Background(), quickSrc, nil, DefaultOptions())
			}
			if err != nil {
				errc <- fmt.Errorf("goroutine %d: compile: %w", g, err)
				return
			}
			if fp := Fingerprint(quickSrc, nil, DefaultOptions()); fp != baseFP {
				errc <- fmt.Errorf("goroutine %d: fingerprint drifted", g)
				return
			}
			res, err := prog.Run(SP2Machine(prog.Ranks()))
			if err != nil {
				errc <- fmt.Errorf("goroutine %d: run: %w", g, err)
				return
			}
			if err := spmd.SameRun(base.inner, baseRes.exec, res.exec); err != nil {
				errc <- fmt.Errorf("goroutine %d: %w", g, err)
			}
		}(g)
	}

	// The other half share ONE program — the cache's access pattern —
	// mixing Run, Report and NodeProgram on it concurrently.
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			switch g % 3 {
			case 0:
				res, err := base.Run(SP2Machine(base.Ranks()))
				if err != nil {
					errc <- fmt.Errorf("shared goroutine %d: run: %w", g, err)
					return
				}
				if res.Seconds() != baseRes.Seconds() {
					errc <- fmt.Errorf("shared goroutine %d: time %g, want %g", g, res.Seconds(), baseRes.Seconds())
				}
			case 1:
				if rep := base.Report(); rep != baseReport {
					errc <- fmt.Errorf("shared goroutine %d: report drifted", g)
				}
			case 2:
				if np := base.NodeProgram(0); np != baseNode0 {
					errc <- fmt.Errorf("shared goroutine %d: node program drifted", g)
				}
			}
		}(g)
	}

	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestRenderParallel: the first renderings of a fresh Program — nothing
// has built its schedule or a zero-point plan yet — race each other: every
// rank's node program from eight goroutines and the report from a ninth.
// Each must read exactly what a serial caller reads; the plans they share
// are computed once and never written again.
func TestRenderParallel(t *testing.T) {
	src := nas.SPSource(12, 1, 2, 2)
	serial, err := Compile(src, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	wantReport := serial.Report()
	wantNodes := make([]string, serial.Ranks())
	for r := range wantNodes {
		wantNodes[r] = serial.NodeProgram(r)
	}

	fresh, err := Compile(src, nil, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errc := make(chan error, goroutines*len(wantNodes)+1)
	wg.Add(goroutines + 1)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for i := range wantNodes {
				r := (g + i) % len(wantNodes)
				if fresh.NodeProgram(r) != wantNodes[r] {
					errc <- fmt.Errorf("goroutine %d: node program of rank %d differs from the serial rendering", g, r)
				}
			}
		}(g)
	}
	go func() {
		defer wg.Done()
		if fresh.Report() != wantReport {
			errc <- fmt.Errorf("report differs from the serial rendering")
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}
