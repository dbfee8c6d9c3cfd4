package stats

// Index identifies one simulator counter inside a Block. It is declared
// once, by the statement that binds it to the canonical name it renders
// under (the way Family declares a service's series).
type Index uint8

// indexNames[i] is the name Index i renders under; filled at package init.
var indexNames []string

func index(name string) Index {
	if len(indexNames) == len(Block{}.v) {
		panic("stats: Block is full; widen it before declaring " + name)
	}
	indexNames = append(indexNames, name)
	return Index(len(indexNames) - 1)
}

// Block is the counter store of one simulated system: a fixed array bumped
// by Index, so a simulated event costs an add, not a mutex and a map
// lookup. It renders to a name→value map of the counters that exist: a
// counter exists once Add or Inc touched it (even by zero) or Max raised
// it. Banks breaks the memory traffic down per bank; the device sizes it
// when it is built and the memory controllers count into it. Like the
// simulation it belongs to, it is single-threaded.
type Block struct {
	v       [64]int64 // as many as touched has bits
	touched uint64    // bit i: counter i exists
	Banks   []BankCounters
}

// BankCounters is the memory traffic of one bank over a run.
type BankCounters struct {
	Reads      int64
	Writes     int64
	Writebacks int64
	RowHits    int64
	RowMisses  int64
	ColHits    int64
	ColMisses  int64
	Retries    int64
	// BusBusyPs is simulated bus time spent on this bank's transfers.
	BusBusyPs int64
	// QueuePeak is the most requests the bank's queue held at once.
	QueuePeak int64
}

// Add folds o into b: every counter summed, the queue peak the maximum.
func (b *BankCounters) Add(o BankCounters) {
	b.Reads += o.Reads
	b.Writes += o.Writes
	b.Writebacks += o.Writebacks
	b.RowHits += o.RowHits
	b.RowMisses += o.RowMisses
	b.ColHits += o.ColHits
	b.ColMisses += o.ColMisses
	b.Retries += o.Retries
	b.BusBusyPs += o.BusBusyPs
	if o.QueuePeak > b.QueuePeak {
		b.QueuePeak = o.QueuePeak
	}
}

// Add increments counter i by delta.
func (b *Block) Add(i Index, delta int64) {
	b.v[i] += delta
	b.touched |= 1 << i
}

// Inc increments counter i by one.
func (b *Block) Inc(i Index) { b.Add(i, 1) }

// Max raises counter i to v if v is larger than its current value.
func (b *Block) Max(i Index, v int64) {
	if v > b.v[i] {
		b.v[i] = v
		b.touched |= 1 << i
	}
}

// Get returns the value of the counter called name (zero if never touched).
// It renders the whole block: for readers, not for the simulation.
func (b *Block) Get(name string) int64 { return b.Snapshot()[name] }

// Snapshot renders the counters that exist as a name→value map.
func (b *Block) Snapshot() map[string]int64 {
	out := make(map[string]int64, len(indexNames))
	for i, n := range indexNames {
		if b.touched&(1<<uint(i)) != 0 {
			out[n] = b.v[i]
		}
	}
	return out
}

// Reset returns the block to its zero state: no counter exists, and every
// bank's counters are zero in place, so whoever holds Banks keeps counting
// into it.
func (b *Block) Reset() {
	clear(b.Banks)
	*b = Block{Banks: b.Banks}
}

// The simulator's counters: one Index per canonical name below.
var (
	IdxMemReads          = index(MemReads)
	IdxMemWrites         = index(MemWrites)
	IdxMemGathers        = index(MemGathers)
	IdxMemWritebacks     = index(MemWritebacks)
	IdxBufferHits        = index(BufferHits)
	IdxBufferMisses      = index(BufferMisses)
	IdxRowActivations    = index(RowActivations)
	IdxColActivations    = index(ColActivations)
	IdxOrientSwitches    = index(OrientSwitches)
	IdxRefreshes         = index(Refreshes)
	IdxBufferFlushes     = index(BufferFlushes)
	IdxQueueMaxOccupancy = index(QueueMaxOccupancy)
	IdxSchedFRHits       = index(SchedFRHits)
	IdxSchedStarved      = index(SchedStarved)
	IdxECCCorrected      = index(ECCCorrected)
	IdxECCUncorrectable  = index(ECCUncorrectable)
	IdxECCRetries        = index(ECCRetries)
	IdxL1Hits            = index(L1Hits)
	IdxL2Hits            = index(L2Hits)
	IdxL3Hits            = index(L3Hits)
	IdxLLCMisses         = index(LLCMisses)
	IdxEvictions         = index(Evictions)
	IdxDirtyEvictions    = index(DirtyEvictions)
	IdxMSHRMerges        = index(MSHRMerges)
	IdxPinnedLines       = index(PinnedLines)
	IdxPinBypasses       = index(PinBypasses)
	IdxPrefetches        = index(Prefetches)
	IdxPrefetchHits      = index(PrefetchHits)
	IdxCrossingDetected  = index(CrossingDetected)
	IdxCrossingCopies    = index(CrossingCopies)
	IdxCrossingUpdates   = index(CrossingUpdates)
	IdxCrossingClears    = index(CrossingClears)
	IdxCoherenceInvals   = index(CoherenceInvals)
	IdxCoherenceMsgs     = index(CoherenceMsgs)
	IdxOverheadPs        = index(OverheadPs)
	IdxOpsExecuted       = index(OpsExecuted)
	IdxComputePs         = index(ComputePs)
	IdxStallPs           = index(StallPs)
	IdxTierDRAMHits      = index(TierDRAMHits)
	IdxTierPromotions    = index(TierPromotions)
	IdxTierDemotions     = index(TierDemotions)
	IdxTierWritebacks    = index(TierWritebacks)
	IdxTierColPatches    = index(TierColPatches)
)
