//go:build !race

package experiments

import (
	"testing"

	"rcnvm/internal/par"
)

// sweepDigestMedium is the digest of the Fig 18-21 cell set at the medium
// scale, the sim_stats_digest the sim_sweep benchmark prints. At this
// scale table-a fills the modelled L3, so a change the small scale cannot
// see (one that moves only the order of simultaneous events, say) still
// moves a counter here.
const sweepDigestMedium = "9be4f73aa74256435ab0b97ba7ffb2abfd5e8b4aa39660f459e9efbf126e6614"

// TestSweepDigestMediumPinned runs the medium-scale sweep, one worker per
// CPU. It takes seconds, so -short skips it, and the race build leaves it
// out.
func TestSweepDigestMediumPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-scale sweep")
	}
	if got := sweepDigest(t, ScaleMedium, par.Workers(0)); got != sweepDigestMedium {
		t.Fatalf("medium sweep digest = %s, want %s", got, sweepDigestMedium)
	}
}
