// Package fault is the deterministic fault-injection layer of the RC-NVM
// stack. Crossbar NVM has a non-trivial raw bit error rate and limited
// write endurance — the reason §4.1 of the paper puts a (72,64) SECDED
// chip on every rank. This package models the raw errors that ECC must
// absorb:
//
//   - transient bit flips, sampled per codeword read at a configurable raw
//     bit error rate (RBER);
//   - wear-out stuck-at cells, which appear once a subarray's write count
//     crosses an endurance threshold and persist across reads (hard
//     errors);
//   - a stuck-bank mode in which every cell read of one bank fails
//     uncorrectably (a dead chip/bank);
//   - targeted stuck cells, for tests that need a fault at an exact
//     coordinate.
//
// Determinism contract: every random draw is a pure function of
// (Seed, canonical word index, tick), where tick is caller-supplied
// entropy. The timing simulator passes the simulation timestamp, so a
// sweep is exactly reproducible and parallel runs are byte-identical to
// sequential ones; the value-level engine path draws ticks from an atomic
// sequence, so it is reproducible whenever the statement interleaving is
// (single-session traffic, tests). Stuck-at faults depend only on
// (Seed, word, accumulated writes) and are order-independent.
//
// The injector is safe for concurrent use after setup: counters and wear
// counts are atomic, and the configuration (including targeted stuck
// cells) is read-only once traffic starts.
package fault

import (
	"fmt"
	"math"
	"sync/atomic"

	"rcnvm/internal/addr"
	"rcnvm/internal/ecc"
)

// MaxReadRetries is how many times the memory controller re-reads a line
// whose ECC decode detected an uncorrectable error before giving up.
// Transient flips re-sample on each retry; stuck-at errors persist, so a
// hard double error still surfaces after retrying.
const MaxReadRetries = 2

// Config parameterizes an Injector. The zero value injects nothing.
type Config struct {
	// Enabled is the master switch; everything below is ignored (and the
	// whole layer is skipped via nil-injector checks) when false.
	Enabled bool
	// Seed drives every pseudo-random draw.
	Seed uint64
	// RBER is the transient raw bit error rate: the per-bit probability
	// that a cell read returns a flipped bit, sampled independently per
	// 72-bit codeword read.
	RBER float64
	// WearThresholdWrites is the per-subarray write count beyond which
	// wear-out stuck-at cells start to appear (0 disables wear faults
	// unless WearStuckRate is set, in which case cells may be stuck from
	// the start — useful for tests).
	WearThresholdWrites int64
	// WearStuckRate is the asymptotic per-word probability of carrying a
	// stuck-at bit once a subarray is fully worn (the probability ramps
	// linearly from the threshold to twice the threshold).
	WearStuckRate float64
	// StuckBankEnabled/StuckBank fail every cell read of one dense bank
	// id (device.Geometry.BankID) uncorrectably — a dead bank.
	StuckBankEnabled bool
	StuckBank        int
	// ContinueOnUncorrectable makes the timing simulator count
	// uncorrectable errors and keep running instead of failing the run —
	// the reliability sweep uses this to measure error rates; the serving
	// path leaves it false so errors propagate to clients.
	ContinueOnUncorrectable bool
}

// UncorrectableError is the typed error surfaced when ECC detects an
// error it cannot correct. It unwraps to ecc.ErrUncorrectable so callers
// can errors.Is against either.
type UncorrectableError struct {
	Coord  addr.Coord
	Orient addr.Orientation
	TimePs int64 // simulation time on the timing path; 0 on the value path
}

func (e *UncorrectableError) Error() string {
	return fmt.Sprintf("fault: uncorrectable memory error at ch%d rk%d bk%d sa%d row%d col%d (%s read)",
		e.Coord.Channel, e.Coord.Rank, e.Coord.Bank, e.Coord.Subarray,
		e.Coord.Row, e.Coord.Column, e.Orient)
}

// Unwrap ties the typed error to the ecc sentinel.
func (e *UncorrectableError) Unwrap() error { return ecc.ErrUncorrectable }

// Counts is a snapshot of the injector's accounting.
type Counts struct {
	TransientBits int64 // raw transient bit flips injected
	StuckBits     int64 // stuck-at bits read (hard errors, incl. stuck bank)
	Corrected     int64 // codewords with a single-bit error corrected by ECC
	Uncorrectable int64 // codewords whose error ECC detected but could not correct
	Miscorrected  int64 // codewords silently corrupted (>=3 flips aliasing to a valid single-error syndrome); value path only, where the true data is known
	Retries       int64 // controller read retries after a detected error
	Writes        int64 // writes recorded for wear accounting
}

// Injector decides, per access, which raw bit errors a cell read carries.
type Injector struct {
	cfg  Config
	geom addr.Geometry

	// Binomial(72, RBER) CDF thresholds for 0, 1 and 2 transient flips;
	// a uniform draw above threshold[2] means 3 flips (higher counts are
	// negligible at any plausible RBER and alias to the same decoder
	// behaviours).
	threshold [3]float64

	wearWrites []atomic.Int64 // per-subarray write counts
	subarrays  int            // subarrays per bank

	stuck map[uint32]uint8 // targeted stuck cells: word index -> bit count

	seq atomic.Uint64 // tick source for the value path

	transientBits atomic.Int64
	stuckBits     atomic.Int64
	corrected     atomic.Int64
	uncorrectable atomic.Int64
	miscorrected  atomic.Int64
	retries       atomic.Int64
	writes        atomic.Int64
}

// New builds an injector for one device geometry. Returns nil when the
// config is disabled, so callers can wire the result unconditionally and
// gate the hot path on a nil check.
func New(geom addr.Geometry, cfg Config) *Injector {
	if !cfg.Enabled {
		return nil
	}
	in := &Injector{
		cfg:       cfg,
		geom:      geom,
		subarrays: geom.Subarrays(),
		stuck:     make(map[uint32]uint8),
	}
	in.wearWrites = make([]atomic.Int64, geom.TotalBanks()*geom.Subarrays())
	// Binomial CDF over the 72 codeword bits at p = RBER.
	p := cfg.RBER
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	q72 := math.Pow(1-p, float64(ecc.CodewordBits))
	in.threshold[0] = q72
	if p < 1 {
		p1 := float64(ecc.CodewordBits) * p / (1 - p) * q72
		in.threshold[1] = in.threshold[0] + p1
		p2 := float64(ecc.CodewordBits*(ecc.CodewordBits-1)) / 2 * (p / (1 - p)) * (p / (1 - p)) * q72
		in.threshold[2] = in.threshold[1] + p2
	} else {
		in.threshold[1], in.threshold[2] = q72, q72
	}
	return in
}

// Config returns the injector's configuration.
func (in *Injector) Config() Config { return in.cfg }

// AddStuck registers a targeted stuck cell: the codeword of the word at c
// permanently carries bits stuck-at-wrong bits (1 => always corrected,
// 2 => always uncorrectable, >=3 => decoder-dependent). Setup only — not
// safe once traffic is running.
func (in *Injector) AddStuck(c addr.Coord, bits int) {
	if bits < 0 {
		bits = 0
	}
	if bits > ecc.CodewordBits {
		bits = ecc.CodewordBits
	}
	in.stuck[in.wordKey(c)] = uint8(bits)
}

// wordKey is the canonical (row-oriented) word index of a coordinate, the
// identity both the timing and the value path draw under, so they agree
// on which word a fault hits.
func (in *Injector) wordKey(c addr.Coord) uint32 {
	return in.geom.Encode(c, addr.Row) / addr.WordBytes
}

func (in *Injector) subarrayIndex(c addr.Coord) int {
	return in.geom.BankID(c)*in.subarrays + int(c.Subarray)
}

// RecordWrite accounts one write access to the word at c for wear
// modeling.
func (in *Injector) RecordWrite(c addr.Coord) {
	in.writes.Add(1)
	in.wearWrites[in.subarrayIndex(c)].Add(1)
}

// SubarrayWrites returns the recorded write count of the subarray holding
// c.
func (in *Injector) SubarrayWrites(c addr.Coord) int64 {
	return in.wearWrites[in.subarrayIndex(c)].Load()
}

// splitmix64 is the standard 64-bit finalizer-based PRNG step: a pure
// function of its input, which is all the determinism contract needs.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0, 1).
func unit(h uint64) float64 {
	return float64(h>>11) / float64(1<<53)
}

const (
	streamTransient = 0x7472616e7369656e // "transien"
	streamStuck     = 0x737475636b000000 // "stuck"
	streamPosition  = 0x706f730000000000 // "pos"
)

// transientFlips samples how many transient bits flip in the codeword of
// word key on the read identified by tick.
func (in *Injector) transientFlips(key uint32, tick uint64) int {
	if in.cfg.RBER <= 0 {
		return 0
	}
	u := unit(splitmix64(in.cfg.Seed ^ uint64(key)<<20 ^ tick ^ streamTransient))
	switch {
	case u < in.threshold[0]:
		return 0
	case u < in.threshold[1]:
		return 1
	case u < in.threshold[2]:
		return 2
	default:
		return 3
	}
}

// stuckFlips returns how many stuck-at bits the codeword of the word at c
// carries right now. Stuck bits are persistent: the same word keeps the
// same count (monotonically non-decreasing as wear accumulates).
func (in *Injector) stuckFlips(c addr.Coord, key uint32) int {
	if in.cfg.StuckBankEnabled && in.geom.BankID(c) == in.cfg.StuckBank {
		return 2 // a dead bank: always detectably uncorrectable
	}
	if len(in.stuck) > 0 {
		if n, ok := in.stuck[key]; ok {
			return int(n)
		}
	}
	if in.cfg.WearStuckRate <= 0 {
		return 0
	}
	rate := in.cfg.WearStuckRate
	if t := in.cfg.WearThresholdWrites; t > 0 {
		w := in.wearWrites[in.subarrayIndex(c)].Load()
		if w <= t {
			return 0
		}
		ramp := float64(w-t) / float64(t)
		if ramp < 1 {
			rate *= ramp
		}
	}
	u := unit(splitmix64(in.cfg.Seed ^ uint64(key)<<20 ^ streamStuck))
	switch {
	case u < rate*rate:
		return 2
	case u < rate:
		return 1
	default:
		return 0
	}
}

// flipPositions fills pos[:n] with n distinct bit positions in [0, 72).
// Stuck positions (the first nStuck) depend only on (seed, key) so hard
// errors hit the same bits on every read; transient positions mix in the
// tick.
func (in *Injector) flipPositions(key uint32, tick uint64, nStuck, nTotal int, pos *[8]int) {
	h := splitmix64(in.cfg.Seed ^ uint64(key)<<20 ^ streamPosition)
	draw := func() int {
		h = splitmix64(h)
		return int(h % ecc.CodewordBits)
	}
	n := 0
	add := func(p int) bool {
		for i := 0; i < n; i++ {
			if pos[i] == p {
				return false
			}
		}
		pos[n] = p
		n++
		return true
	}
	for n < nStuck {
		add(draw())
	}
	// Transient draws continue from a tick-mixed state.
	h ^= splitmix64(tick ^ streamTransient)
	for n < nTotal {
		add(draw())
	}
}

// outcome classifies one codeword decode.
type outcome uint8

const (
	outClean outcome = iota
	outCorrected
	outUncorrectable
)

// checkCodeword runs one data word through encode -> inject -> decode and
// does the bookkeeping. It returns the decoded word and the outcome.
func (in *Injector) checkCodeword(c addr.Coord, data uint64, tick uint64, trackMiscorrect bool) (uint64, outcome) {
	key := in.wordKey(c)
	nStuck := in.stuckFlips(c, key)
	nTransient := in.transientFlips(key, tick)
	if nStuck == 0 && nTransient == 0 {
		return data, outClean
	}
	if nTransient > 0 {
		in.transientBits.Add(int64(nTransient))
	}
	if nStuck > 0 {
		in.stuckBits.Add(int64(nStuck))
	}
	total := nStuck + nTransient
	if total > ecc.CodewordBits {
		total = ecc.CodewordBits
	}
	var pos [8]int
	in.flipPositions(key, tick, nStuck, total, &pos)
	cw := ecc.Encode(data)
	for i := 0; i < total; i++ {
		cw = cw.Flip(pos[i])
	}
	decoded, res, _ := ecc.Decode(cw)
	switch res {
	case ecc.OK:
		// Distinct flips never cancel, and an even number of them keeps
		// overall parity even with a non-zero syndrome, so a clean decode
		// here means the draws collided down to zero effective flips.
		return decoded, outClean
	case ecc.Corrected:
		in.corrected.Add(1)
		if trackMiscorrect && decoded != data {
			// >=3 flips aliased to a valid single-error syndrome: SECDED
			// "corrected" its way to silently wrong data.
			in.miscorrected.Add(1)
		}
		return decoded, outCorrected
	default:
		in.uncorrectable.Add(1)
		return data, outUncorrectable
	}
}

// CheckWord is the value-path entry: it runs the real stored word through
// the ECC pipeline with injected faults. A correctable error returns the
// corrected (original) word; an uncorrectable one returns a typed
// *UncorrectableError. Three or more flips may silently return corrupted
// data, exactly as real SECDED can — the Miscorrected counter tracks it.
func (in *Injector) CheckWord(c addr.Coord, o addr.Orientation, data uint64) (uint64, error) {
	v, out := in.checkCodeword(c, data, in.seq.Add(1), true)
	if out == outUncorrectable {
		return data, &UncorrectableError{Coord: c, Orient: o}
	}
	return v, nil
}

// LineOutcome summarizes the ECC decode of the 8 codewords of one 64-byte
// line read. It is a value type so the memory-controller hot path stays
// allocation-free.
type LineOutcome struct {
	Corrected     int
	Uncorrectable int
}

// CheckLine is the timing-path entry: it classifies the 8 codewords of
// the cache line read at id. tick must be deterministic for reproducible
// sweeps (the controller passes the simulation timestamp, mixed with the
// retry number). The data content is synthesized from the word identity —
// decode outcomes depend only on the error pattern, not the data.
func (in *Injector) CheckLine(id addr.LineID, tick uint64) LineOutcome {
	var out LineOutcome
	for i := 0; i < addr.LineWords; i++ {
		c := id.WordCoord(i)
		data := splitmix64(uint64(in.wordKey(c)))
		switch _, o := in.checkCodeword(c, data, tick+uint64(i)<<40, false); o {
		case outCorrected:
			out.Corrected++
		case outUncorrectable:
			out.Uncorrectable++
		}
	}
	return out
}

// RecordRetry accounts one controller read retry.
func (in *Injector) RecordRetry() { in.retries.Add(1) }

// Counts returns a snapshot of the accounting counters.
func (in *Injector) Counts() Counts {
	return Counts{
		TransientBits: in.transientBits.Load(),
		StuckBits:     in.stuckBits.Load(),
		Corrected:     in.corrected.Load(),
		Uncorrectable: in.uncorrectable.Load(),
		Miscorrected:  in.miscorrected.Load(),
		Retries:       in.retries.Load(),
		Writes:        in.writes.Load(),
	}
}
