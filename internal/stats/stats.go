// Package stats collects the counters the RC-NVM evaluation reports:
// memory accesses (LLC misses, Figure 19), row-/column-buffer hits and
// misses (Figure 20), cache synonym and coherence overhead (Figure 21), and
// general execution accounting.
package stats

// Ratio returns a/(a+b) as a float, or 0 when both are zero. It is the
// helper used for buffer miss rates and overhead ratios.
func Ratio(a, b int64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}

// Canonical counter names used across the simulator. Components add to
// these; the experiment harness reads them.
const (
	// Device / controller level.
	MemReads          = "mem.reads"
	MemWrites         = "mem.writes"
	MemGathers        = "mem.gathers"
	MemWritebacks     = "mem.writebacks"
	BufferHits        = "mem.buffer_hits"
	BufferMisses      = "mem.buffer_misses"
	RowActivations    = "mem.row_activations"
	ColActivations    = "mem.col_activations"
	OrientSwitches    = "mem.orientation_switches"
	Refreshes         = "mem.refreshes"
	BufferFlushes     = "mem.buffer_flushes"
	QueueMaxOccupancy = "mem.queue_max_occupancy"
	SchedFRHits       = "mem.sched_fr_hits" // requests promoted by FR-FCFS
	SchedStarved      = "mem.sched_starvation_overrides"

	// Reliability: the (72,64) SECDED path of the memory controller.
	// Corrected/uncorrectable count codewords (8 per line read); retries
	// count controller re-reads after a detected error.
	ECCCorrected     = "ecc.corrected_words"
	ECCUncorrectable = "ecc.uncorrectable_words"
	ECCRetries       = "ecc.read_retries"

	// Cache level.
	L1Hits         = "cache.l1_hits"
	L2Hits         = "cache.l2_hits"
	L3Hits         = "cache.l3_hits"
	LLCMisses      = "cache.llc_misses"
	Evictions      = "cache.evictions"
	DirtyEvictions = "cache.dirty_evictions"
	MSHRMerges     = "cache.mshr_merges"
	PinnedLines    = "cache.pinned_lines"
	PinBypasses    = "cache.pin_bypasses"
	Prefetches     = "cache.prefetches"
	PrefetchHits   = "cache.prefetch_hits"

	// Synonym / coherence (Figure 21). OverheadPs accumulates every extra
	// picosecond spent on synonym copies/updates/clears and coherence
	// invalidations.
	CrossingDetected = "syn.crossings_detected"
	CrossingCopies   = "syn.crossing_copies"
	CrossingUpdates  = "syn.crossing_updates"
	CrossingClears   = "syn.crossing_clears"
	CoherenceInvals  = "coh.invalidations"
	CoherenceMsgs    = "coh.messages"
	OverheadPs       = "syn.overhead_ps"

	// Core level.
	OpsExecuted = "core.ops"
	ComputePs   = "core.compute_ps"
	StallPs     = "core.stall_ps"

	// Hybrid DRAM tier (internal/tier): row migrations between the DRAM
	// cache and the NVM device, and the accesses DRAM absorbed.
	TierDRAMHits   = "tier.dram_hits"
	TierPromotions = "tier.promotions"
	TierDemotions  = "tier.demotions"
	TierWritebacks = "tier.writebacks"
	TierColPatches = "tier.col_patches"
)
