package dep

import "sync/atomic"

// CountAnalyze starts counting Analyze calls and returns the count so far
// and a function that stops counting.  Not for parallel tests.
func CountAnalyze() (count func() int64, stop func()) {
	var n atomic.Int64
	analyzed = func() { n.Add(1) }
	return n.Load, func() { analyzed = nil }
}
