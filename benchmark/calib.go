package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The reference box runs at two speeds: for seconds at a time the same
// op takes 1.5–1.8× as long, with both cores busy throughout and no
// difference in page faults, context switches or collections.  Tight
// arithmetic loops barely notice (≈1.1×); code that allocates and
// branches like the compiler and the engines do slows down as they do.
// Medians of a 10-second run therefore differed by up to 40 % between
// runs of one binary, which no bound up to 0.25 survives.
//
// So every host time is reported in units of a reference kernel timed
// right next to it: reported = measured × calibNominalMS ÷ (kernel time
// around it).  The kernel is harness code over the standard library
// only — a JSON round trip, key formatting and a sort on each of two
// goroutines, to keep both cores as busy as the workloads do — so no
// change to the repository moves it.  While the kernel takes
// calibNominalMS, reported equals measured; noise.speed_factor says how
// far the box was from that.  This cut the run-to-run spread of
// op_ms_p50 from 37 % to 2–11 %; README.md has the numbers.

// calibNominalMS is the kernel's usual time between ops on the
// reference box (alone it runs in 0.45 ms at the fast speed and 0.75 ms
// at the slow one).
const calibNominalMS = 0.7

type calibRecord struct {
	Name  string
	Vals  []float64
	Tags  map[string]int
	Inner []struct {
		A, B int
		S    string
	}
}

var calibRecords = func() []calibRecord {
	out := make([]calibRecord, 40)
	for i := range out {
		out[i].Name = fmt.Sprintf("record-%d", i)
		out[i].Vals = []float64{1.5, 2.25, float64(i), 1e-9}
		out[i].Tags = map[string]int{"a": i, "b": 2 * i, "c": 3}
		out[i].Inner = make([]struct {
			A, B int
			S    string
		}, 5)
		for j := range out[i].Inner {
			out[i].Inner[j].S = "inner string value"
		}
	}
	return out
}()

// calibRuns counts kernel runs, so that loops which count allocations
// can take the kernel's own out again.
var calibRuns atomic.Int64

// calibCost is what one kernel run allocates, measured once: the kernel
// does the same work every time.
var calibCost = sync.OnceValue(func() (c struct{ mallocs, bytes float64 }) {
	const n = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		kernel()
	}
	runtime.ReadMemStats(&after)
	c.mallocs = float64(after.Mallocs-before.Mallocs) / n
	c.bytes = float64(after.TotalAlloc-before.TotalAlloc) / n
	return c
})

// calibrate returns the kernel's wall time in milliseconds: the fastest
// of three runs, because what disturbs a run — above all a collection of
// the garbage the workload just left — only ever slows it.
func calibrate() float64 {
	return min(kernel(), kernel(), kernel())
}

// kernel runs the reference kernel once.
func kernel() float64 {
	calibRuns.Add(1)
	t0 := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			data, err := json.Marshal(calibRecords)
			if err != nil {
				panic(err)
			}
			var back []calibRecord
			if err := json.Unmarshal(data, &back); err != nil {
				panic(err)
			}
			keys := make([]string, 0, 600)
			for i := 0; i < 600; i++ {
				keys = append(keys, fmt.Sprintf("k%05d", (i*7919)%600))
			}
			sort.Strings(keys)
		}()
	}
	wg.Wait()
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// speed is the factor that turns a time measured between two kernel
// times into reference-box time.
func speed(before, after float64) float64 {
	return calibNominalMS / ((before + after) / 2)
}

// smoothing is how many kernel runs on each side of a sample of a
// series its speed factor is the median of.
const smoothing = 4

// series runs f n times with a kernel run between every two, and scales
// each time by the median of the kernel runs around it: close enough in
// time to follow the box's speed (it changes over seconds), enough of
// them to shrug off one polluted run.  It returns the scaled times in
// milliseconds, the factors applied, and f's errors.
func series(n int, f func(i int) error) (scaled, speeds []float64, errs []error) {
	kernels := append(make([]float64, 0, n+1), calibrate())
	raw := make([]float64, n)
	errs = make([]error, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		errs[i] = f(i)
		raw[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		kernels = append(kernels, calibrate())
	}
	scaled, speeds = make([]float64, n), make([]float64, n)
	for i := range raw {
		// Sample i ran between kernels[i] and kernels[i+1].
		lo, hi := max(0, i+1-smoothing), min(len(kernels), i+1+smoothing)
		speeds[i] = calibNominalMS / median(kernels[lo:hi])
		scaled[i] = raw[i] * speeds[i]
	}
	return scaled, speeds, errs
}

// stopwatch accumulates reference-box time over a long stretch of work
// by laps: each lap is scaled by the kernel times at its two ends, so a
// change of the box's speed in mid-stretch is followed.
type stopwatch struct {
	last      time.Time
	lastCalib float64
	totalMS   float64
}

func newStopwatch() *stopwatch {
	c := calibrate()
	return &stopwatch{last: time.Now(), lastCalib: c}
}

// lap closes the current lap and returns the total so far.  A nil
// stopwatch (work nobody is timing) does nothing.
func (s *stopwatch) lap() float64 {
	if s == nil {
		return 0
	}
	d := float64(time.Since(s.last).Nanoseconds()) / 1e6
	c := calibrate()
	s.totalMS += d * speed(s.lastCalib, c)
	s.lastCalib, s.last = c, time.Now()
	return s.totalMS
}

// sampleMS runs f n times between two kernel times and returns the
// median time in reference-box milliseconds.
func sampleMS(n int, f func() error) (float64, error) {
	var ds []float64
	before := calibrate()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	return median(ds) * speed(before, calibrate()), nil
}

// perCallNS times batches of calls and returns the median batch's
// reference-box nanoseconds per call.
func perCallNS(f func()) float64 {
	const batches, calls = 15, 2000
	var per []float64
	before := calibrate()
	for b := 0; b < batches; b++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			f()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/calls)
	}
	return median(per) * speed(before, calibrate())
}
