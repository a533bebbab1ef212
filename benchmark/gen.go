package main

import (
	"fmt"
	"math/rand/v2"
	"strings"
)

// editMarker is the statement every NAS source of this repository ends
// its time step with (u += CoefAdd·…); the generators rewrite its
// constant, so an edit touches exactly one statement — inside procedure
// add in the modular SP source.
const editMarker = "u(i,j,k) = u(i,j,k) + 0.1*"

// editSpace is the number of distinct edit constants: five free digits
// and a last digit 1–9, so the printed constant never loses a trailing
// zero and every edited source has the same length.
const editSpace = 900000

// editStream yields distinct fixed-width constants 0.1dddddd in a
// seed-dependent order.  The lanes of one seed interleave one walk over
// the whole space, so no constant repeats within a run, across lanes
// either, before editSpace draws.
type editStream struct {
	start, stride, i, lane, lanes uint64
}

// newEditStream derives lane number lane (of lanes) of the seed's walk.
func newEditStream(seed int64, lane, lanes int) *editStream {
	r := rand.New(rand.NewPCG(uint64(seed), 0x6468706662656e63))
	return &editStream{
		start: r.Uint64N(editSpace),
		// 7 + 30k is odd, ≡1 (mod 3) and ≡2 (mod 5): coprime to
		// editSpace = 2⁵·3²·5⁵, so the walk visits every value once.
		stride: 7 + 30*r.Uint64N(1000),
		lane:   uint64(lane),
		lanes:  uint64(lanes),
	}
}

// next returns the next constant's text.
func (e *editStream) next() string {
	v := (e.start + (e.i*e.lanes+e.lane)*e.stride) % editSpace
	e.i++
	return fmt.Sprintf("0.1%05d%d", v/9, v%9+1)
}

// edit returns base with the marker statement's constant replaced.
func edit(base, constant string) (string, error) {
	if strings.Count(base, editMarker) != 1 {
		return "", fmt.Errorf("edit marker occurs %d times, want once", strings.Count(base, editMarker))
	}
	return strings.Replace(base, editMarker, strings.TrimSuffix(editMarker, "0.1*")+constant+"*", 1), nil
}
