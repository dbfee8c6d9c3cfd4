// Package device models the memory devices of the RC-NVM evaluation:
// conventional DDR3 DRAM, plain crossbar RRAM, the proposed RC-NVM, and the
// GS-DRAM comparator. A device is a collection of banks; each bank owns one
// sense buffer which, for RC-NVM, may be latched in either the row or the
// column orientation — but never both at once. A row/column orientation
// switch forces the device to close and flush the active buffer before the
// new activation, exactly as §3 of the paper requires to avoid buffer
// incoherence.
//
// Timing follows the DDR-style parameters of Table 1 (tCAS/tRCD/tRP/tRAS in
// memory-clock cycles, plus an NVM cell write-pulse width charged when a
// dirty buffer is flushed back to the cells). All absolute times are in
// picoseconds.
package device

import (
	"fmt"

	"rcnvm/internal/addr"
	"rcnvm/internal/fault"
	"rcnvm/internal/obs"
	"rcnvm/internal/stats"
)

// Kind identifies the device technology/architecture.
type Kind uint8

const (
	// DRAM is conventional DDR3 DRAM (row access only).
	DRAM Kind = iota
	// RRAM is a plain crossbar NVM with conventional row-only addressing.
	RRAM
	// RCNVM is the proposed dual-addressable crossbar NVM.
	RCNVM
	// GSDRAM is DRAM with gather-scatter support for power-of-2 strided
	// patterns within an open row (Seshadri et al., MICRO'15).
	GSDRAM
)

func (k Kind) String() string {
	switch k {
	case DRAM:
		return "DRAM"
	case RRAM:
		return "RRAM"
	case RCNVM:
		return "RC-NVM"
	case GSDRAM:
		return "GS-DRAM"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Timing holds device timing parameters. TCAS/TRCD/TRP/TRAS are in memory
// clock cycles (as in Table 1); ClockPs is the memory command clock period
// and BeatPs the data-bus beat time (DDR: half the clock).
type Timing struct {
	ClockPs      int64
	TCAS         int64
	TRCD         int64
	TRP          int64
	TRAS         int64
	WritePulsePs int64 // NVM cell write time, charged on dirty-buffer flush

	// RefreshIntervalPs/RefreshPs model DRAM refresh: every interval each
	// bank is blocked for RefreshPs and its row buffer is precharged.
	// Zero disables refresh (non-volatile memories need none — one of
	// NVM's inherent advantages).
	RefreshIntervalPs int64
	RefreshPs         int64
}

// CASPs returns the column access latency in picoseconds.
func (t Timing) CASPs() int64 { return t.TCAS * t.ClockPs }

// RCDPs returns the activation latency in picoseconds.
func (t Timing) RCDPs() int64 { return t.TRCD * t.ClockPs }

// RPPs returns the precharge latency in picoseconds.
func (t Timing) RPPs() int64 { return t.TRP * t.ClockPs }

// RASPs returns the minimum activate-to-precharge time in picoseconds.
func (t Timing) RASPs() int64 { return t.TRAS * t.ClockPs }

// BeatPs returns the data bus beat time (DDR transfers two beats per clock).
func (t Timing) BeatPs() int64 { return t.ClockPs / 2 }

// BurstPs returns the time to move one 64-byte cache line over the 64-bit
// channel bus (8 beats).
func (t Timing) BurstPs() int64 { return 8 * t.BeatPs() }

// Config describes one memory device instance.
type Config struct {
	Name   string
	Kind   Kind
	Geom   addr.Geometry
	Timing Timing

	// IdealDualBuffers is an ablation knob: it lifts the §3 restriction
	// that a bank's row and column buffer are never active together, by
	// giving each orientation an independent buffer with no switch
	// penalty. Physical RC-NVM cannot do this (buffer incoherence);
	// comparing against it quantifies the cost of the restriction.
	IdealDualBuffers bool
}

// SupportsColumn reports whether the device accepts column-oriented
// accesses.
func (c Config) SupportsColumn() bool { return c.Kind == RCNVM && c.Geom.DualAddress }

// SupportsGather reports whether the device accepts gathered strided
// accesses.
func (c Config) SupportsGather() bool { return c.Kind == GSDRAM }

// buffer is one sense buffer (a bank has one; the idealized ablation device
// has one per orientation).
type buffer struct {
	open       bool
	orient     addr.Orientation
	subarray   uint32
	index      uint32 // open row (Row orientation) or open column (Column)
	dirty      bool
	activateAt int64 // time of the last activation, for tRAS
}

// bank is the per-bank state machine.
type bank struct {
	buf          [2]buffer
	readyAt      int64 // earliest time the bank accepts the next command
	refreshEpoch int64 // last refresh interval this bank has completed
}

// Device simulates all banks of one memory system (all channels and ranks).
type Device struct {
	cfg   Config
	banks []bank
	stats *stats.Block
	inj   *fault.Injector // nil = fault-free (the default)
	tel   *obs.Telemetry  // nil = per-bank telemetry off (the default)
}

// New creates a device with all banks precharged.
func New(cfg Config, st *stats.Block) (*Device, error) {
	if err := cfg.Geom.Validate(); err != nil {
		return nil, err
	}
	if cfg.Kind == RCNVM && !cfg.Geom.DualAddress {
		return nil, fmt.Errorf("device: RC-NVM config %q must have a dual-address geometry", cfg.Name)
	}
	if st == nil {
		st = new(stats.Block)
	}
	return &Device{
		cfg:   cfg,
		banks: make([]bank, cfg.Geom.TotalBanks()),
		stats: st,
	}, nil
}

// Reset returns every bank to its just-built, precharged state.
func (d *Device) Reset() { clear(d.banks) }

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// Stats returns the device's counter set.
func (d *Device) Stats() *stats.Block { return d.stats }

// SetFaults installs a fault injector: cell reads pick up its injected
// raw bit errors (decoded by the memory controller's ECC path) and writes
// feed its wear accounting. nil restores fault-free operation.
func (d *Device) SetFaults(inj *fault.Injector) { d.inj = inj }

// Faults returns the installed fault injector (nil when fault-free).
func (d *Device) Faults() *fault.Injector { return d.inj }

// SetTelemetry installs per-bank telemetry: every access records its
// bank, orientation and buffer hit/miss. nil (the default) disables it;
// the disabled path costs one pointer comparison per access.
func (d *Device) SetTelemetry(t *obs.Telemetry) { d.tel = t }

// Telemetry returns the installed telemetry (nil when disabled).
func (d *Device) Telemetry() *obs.Telemetry { return d.tel }

// AccessResult reports the outcome of one device access.
type AccessResult struct {
	BufferHit bool  // served from the already-open buffer
	Switched  bool  // a row<->column orientation switch occurred
	Flushed   bool  // a dirty buffer had to be written back to the cells
	CellRead  bool  // the cells were sensed (activation); raw bit errors, if injected, enter here
	DataAt    int64 // time at which data is available at the bank pins
	// ReadyAt is when the bank accepts its next command. Successive
	// buffer hits pipeline at burst (tCCD) granularity, so a stream of
	// hits is bus-bandwidth bound rather than serialized on tCAS.
	ReadyAt int64
}

// bufFor returns the buffer an access with orientation o uses.
func (d *Device) bufFor(b *bank, o addr.Orientation) *buffer {
	if d.cfg.IdealDualBuffers {
		return &b.buf[o]
	}
	return &b.buf[0]
}

// WouldHit reports whether an access to the coordinate with the given
// orientation would be served by the currently open buffer of its bank,
// which the caller passes as c's dense bank index (Geometry.BankID). The
// memory controller uses this for FR-FCFS scheduling, with the index it
// computed when the request arrived.
func (d *Device) WouldHit(bank int, c addr.Coord, o addr.Orientation) bool {
	b := &d.banks[bank]
	buf := d.bufFor(b, o)
	return buf.open && buf.orient == o && buf.subarray == c.Subarray && buf.index == bufferIndex(c, o)
}

// BankReadyAt returns the earliest time the bank holding c accepts a new
// command.
func (d *Device) BankReadyAt(c addr.Coord) int64 {
	return d.banks[d.cfg.Geom.BankID(c)].readyAt
}

func bufferIndex(c addr.Coord, o addr.Orientation) uint32 {
	if o == addr.Row {
		return c.Row
	}
	return c.Column
}

// Access performs one 64-byte access (read or write) beginning no earlier
// than now, updating the bank state, and returns when the data is ready at
// the bank. The caller (memory controller) is responsible for data-bus
// arbitration on top of the returned DataAt.
//
// Column-oriented accesses on devices without column support are a
// programming error and panic: the planner must never emit them.
func (d *Device) Access(now int64, c addr.Coord, o addr.Orientation, write bool) AccessResult {
	if o == addr.Column && !d.cfg.SupportsColumn() {
		panic(fmt.Sprintf("device: column access on %s device %q", d.cfg.Kind, d.cfg.Name))
	}
	t := d.cfg.Timing
	b := &d.banks[d.cfg.Geom.BankID(c)]
	buf := d.bufFor(b, o)
	start := max64(now, b.readyAt)

	// Refresh: at each interval boundary the bank is refreshed, which
	// precharges its buffers. If the bank was idle when the refresh came
	// due, the controller did it during the idle time for free; only a
	// refresh that lands in a busy stretch (the bank's previous activity
	// extends past the boundary) blocks this access for tRFC.
	if t.RefreshIntervalPs > 0 {
		epoch := start / t.RefreshIntervalPs
		if epoch > b.refreshEpoch {
			boundary := epoch * t.RefreshIntervalPs
			if b.readyAt > boundary {
				start += t.RefreshPs
				d.stats.Inc(stats.IdxRefreshes)
			}
			for i := range b.buf {
				b.buf[i].open = false
			}
			b.refreshEpoch = epoch
		}
	}

	idx := bufferIndex(c, o)

	var res AccessResult
	if buf.open && buf.orient == o && buf.subarray == c.Subarray && buf.index == idx {
		// Buffer hit: CAS only. The bank can take the next CAS one burst
		// later (tCCD), so hits stream at bus bandwidth.
		res.BufferHit = true
		res.DataAt = start + t.CASPs()
		res.ReadyAt = start + t.BurstPs()
		d.stats.Inc(stats.IdxBufferHits)
	} else {
		prechargeDone := start
		if buf.open {
			// Close the open buffer first, respecting tRAS, and flush it
			// back to the cells if it was modified.
			pStart := max64(start, buf.activateAt+t.RASPs())
			flush := int64(0)
			if buf.dirty {
				flush = t.WritePulsePs
				res.Flushed = true
				d.stats.Inc(stats.IdxBufferFlushes)
			}
			prechargeDone = pStart + t.RPPs() + flush
			if buf.orient != o {
				res.Switched = true
				d.stats.Inc(stats.IdxOrientSwitches)
			}
		}
		actDone := prechargeDone + t.RCDPs()
		res.DataAt = actDone + t.CASPs()
		res.ReadyAt = actDone + t.BurstPs()
		res.CellRead = true
		buf.open = true
		buf.orient = o
		buf.subarray = c.Subarray
		buf.index = idx
		buf.dirty = false
		buf.activateAt = prechargeDone
		d.stats.Inc(stats.IdxBufferMisses)
		if o == addr.Row {
			d.stats.Inc(stats.IdxRowActivations)
		} else {
			d.stats.Inc(stats.IdxColActivations)
		}
	}
	if write {
		buf.dirty = true
		if d.inj != nil {
			d.inj.RecordWrite(c)
		}
	}
	if d.tel != nil {
		d.tel.Access(d.cfg.Geom.BankID(c), o == addr.Column, res.BufferHit)
	}
	b.readyAt = res.ReadyAt
	return res
}

// CloseAll precharges every bank, flushing dirty buffers. It returns the
// number of flushes. Used between workload phases and by tests.
func (d *Device) CloseAll() int {
	flushes := 0
	for i := range d.banks {
		b := &d.banks[i]
		for j := range b.buf {
			if b.buf[j].open && b.buf[j].dirty {
				flushes++
			}
		}
		d.banks[i] = bank{readyAt: b.readyAt}
	}
	return flushes
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
