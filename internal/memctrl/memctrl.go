// Package memctrl implements the per-channel memory controllers of the
// simulated system: a request queue scheduled with FR-FCFS (first-ready,
// first-come-first-served — buffer hits are promoted over older requests,
// as in Table 1), per-bank occupancy tracking, and data-bus arbitration.
// Write-backs travel through the same queues at lower priority than demand
// requests.
package memctrl

import (
	"fmt"

	"rcnvm/internal/addr"
	"rcnvm/internal/device"
	"rcnvm/internal/event"
	"rcnvm/internal/fault"
	"rcnvm/internal/obs"
	"rcnvm/internal/stats"
	"rcnvm/internal/tier"
)

// Request is one 64-byte memory transaction.
type Request struct {
	Coord  addr.Coord
	Orient addr.Orientation
	Write  bool
	// Writeback marks an eviction write-back: scheduled at lower priority
	// and usually fire-and-forget (nil Done).
	Writeback bool
	// Gather marks a GS-DRAM gathered access: one 64-byte transfer
	// assembling 8 strided words from the open row. Timing-wise it is a
	// row access to Coord.
	Gather bool
	// Done, if non-nil, is invoked when the data transfer completes.
	Done func(finish int64)

	arrive int64
	bank   int  // dense bank index of Coord, computed once at Submit
	pooled bool // allocated via Router.Alloc; recycled after completion
}

// Policy selects the scheduling policy.
type Policy uint8

const (
	// FRFCFS promotes buffer hits over older requests (Table 1).
	FRFCFS Policy = iota
	// FCFS serves strictly oldest-first (the ablation baseline).
	FCFS
)

// Controller schedules requests for one channel.
type Controller struct {
	eng    *event.Engine
	dev    *device.Device
	st     *stats.Block
	window int
	policy Policy
	// What the request path needs of the device's configuration, read off
	// it once: dev.Config() copies the whole configuration, too much per
	// queue entry. retryPs is one ECC re-read, a fresh activation.
	geom           addr.Geometry
	burstPs        int64
	retryPs        int64
	supportsGather bool

	queue     []*Request
	busFreeAt int64
	bankBusy  []bool
	pool      *requestPool // shared free list (nil for standalone controllers)
	// banks is the run's per-bank traffic, the device's Block.Banks:
	// always counted, one add per event, indexed by the request's bank.
	banks []stats.BankCounters

	// rec records per-request phase spans (queue/activate/hit/burst) under
	// process name proc. It is nil by default: the disabled path is one
	// pointer comparison per request, so the event-engine hot loop stays
	// allocation-free.
	rec  *obs.Recorder
	proc string

	// faultErr is the first uncorrectable memory error this channel
	// observed (nil when clean); the Router aggregates across channels.
	faultErr *fault.UncorrectableError

	// tr is the shared hybrid DRAM tier; nil (the default) keeps the pure
	// NVM path byte-identical: like rec, the disabled check is one
	// pointer comparison. rt routes tier demotion write-backs, which may
	// target any channel of the device.
	tr *tier.Cache
	rt *Router
}

// requestPool is a free list of Requests shared by a router's controllers.
// The engine is single-threaded, so no locking: a request returns to the
// pool once issue has extracted everything it needs, and the next LLC miss
// reuses it instead of allocating.
type requestPool struct {
	free []*Request
}

func (p *requestPool) get() *Request {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return r
	}
	return &Request{pooled: true}
}

func (p *requestPool) put(r *Request) {
	*r = Request{pooled: true}
	p.free = append(p.free, r)
}

// DefaultWindow is the FR-FCFS scheduling window: the 32-entry request
// queue of Table 1.
const DefaultWindow = 32

// StarvationLimitPs caps how long FR-FCFS may bypass an old request in
// favour of buffer hits: once the oldest issuable request has waited this
// long, it is served regardless (the standard anti-starvation cap real
// FR-FCFS controllers carry).
const StarvationLimitPs = 2_000_000 // 2 us

// NewController creates a controller for one channel of dev.
func NewController(eng *event.Engine, dev *device.Device, st *stats.Block, window int) *Controller {
	if window <= 0 {
		window = DefaultWindow
	}
	cfg := dev.Config()
	return &Controller{
		eng:      eng,
		dev:      dev,
		st:       st,
		window:   window,
		geom:     cfg.Geom,
		burstPs:  cfg.Timing.BurstPs(),
		retryPs:  cfg.Timing.RPPs() + cfg.Timing.RCDPs() + cfg.Timing.CASPs(),
		bankBusy: make([]bool, cfg.Geom.TotalBanks()),
		banks:    dev.Stats().Banks,

		supportsGather: cfg.SupportsGather(),
	}
}

// SetPolicy switches the scheduling policy (before traffic starts).
func (c *Controller) SetPolicy(p Policy) { c.policy = p }

// Submit enqueues a request at the current simulation time.
func (c *Controller) Submit(r *Request) {
	if r.Gather && !c.supportsGather {
		panic(fmt.Sprintf("memctrl: gather request on %s", c.dev.Config().Kind))
	}
	r.arrive = c.eng.Now()
	r.bank = c.geom.BankID(r.Coord)
	b := &c.banks[r.bank]
	b.Queued++
	b.QueuePeak = max(b.QueuePeak, b.Queued)
	c.queue = append(c.queue, r)
	c.st.Max(stats.IdxQueueMaxOccupancy, int64(len(c.queue)))
	c.schedule()
}

// Pending returns the number of queued (not yet issued) requests.
func (c *Controller) Pending() int { return len(c.queue) }

// schedule issues every request it can: repeatedly pick the best issuable
// request in the scheduling window until none remains.
func (c *Controller) schedule() {
	for {
		idx := c.pick()
		if idx < 0 {
			return
		}
		r := c.queue[idx]
		c.queue = append(c.queue[:idx], c.queue[idx+1:]...)
		c.issue(r)
	}
}

// pick returns the index of the best issuable request within the window:
// demand before write-back, buffer hits before misses, then oldest first.
// It returns -1 when nothing can be issued (all candidate banks busy).
//
// The scan stops at the first issuable demand buffer hit, which no later
// request outranks. The queue is in arrival order, so a later request is
// no older; and had a later demand request waited past the starvation
// limit, this one, older and issuable, would have too, and pick would have
// returned it already. What the rest of the window holds can change
// neither the pick nor the sched.fr_hits and sched.starved counts.
func (c *Controller) pick() int {
	best := -1
	bestHit := false
	bestDemand := false
	now := c.eng.Now()
	for i, r := range c.queue[:min(len(c.queue), c.window)] {
		// A DRAM-tier-resident row never needs the NVM bank: it is
		// issuable even while the bank is busy, and ranks as a buffer hit
		// under FR-FCFS.
		tierHit := c.tr != nil && c.tr.WouldServe(now, r.Coord, r.Orient)
		if !tierHit && c.bankBusy[r.bank] {
			continue
		}
		// Anti-starvation: a demand request that has waited past the limit
		// is served first, oldest first.
		demand := !r.Writeback
		if demand && now-r.arrive > StarvationLimitPs {
			c.st.Inc(stats.IdxSchedStarved)
			return i
		}
		hit := c.policy == FRFCFS && (tierHit || c.dev.WouldHit(r.bank, r.Coord, r.Orient))
		if best == -1 || demand && !bestDemand || demand == bestDemand && hit && !bestHit {
			best, bestHit, bestDemand = i, hit, demand
			if hit && demand {
				break
			}
		}
	}
	if bestHit && best > 0 {
		// The scheduler promoted a buffer hit over at least one older
		// request: count the FR-FCFS reordering.
		c.st.Inc(stats.IdxSchedFRHits)
	}
	return best
}

// bankReady is the static bank-release event: invoked via AtCall with the
// controller as ctx and the bank index as arg, so issuing allocates no
// closure.
func bankReady(ctx any, bank, _ int64) {
	c := ctx.(*Controller)
	c.bankBusy[bank] = false
	c.schedule()
}

// requestDone is the static completion event: ctx carries the request's
// Done callback (a func value is pointer-shaped, so boxing it allocates
// nothing) and the firing time is the transfer's finish time.
func requestDone(ctx any, _, finish int64) { ctx.(func(int64))(finish) }

// eccCheck runs the (72,64) SECDED decode over the 8 codewords of a line
// just sensed from the cells for a demand read. Detected-uncorrectable
// errors trigger up to fault.MaxReadRetries re-reads (a fresh activation:
// tRP+tRCD+tCAS each), which re-sample transient flips while stuck-at
// errors persist; an error that survives every retry is recorded as the
// run's typed UncorrectableError unless the injector is configured to
// keep going. Returns the added latency.
func (c *Controller) eccCheck(inj *fault.Injector, r *Request) int64 {
	id := c.geom.LineOf(r.Coord, r.Orient)
	now := uint64(c.eng.Now())
	penalty := int64(0)
	for attempt := 0; ; attempt++ {
		out := inj.CheckLine(id, now+uint64(attempt)*0x9e3779b9)
		if out.Corrected > 0 {
			c.st.Add(stats.IdxECCCorrected, int64(out.Corrected))
		}
		if out.Uncorrectable == 0 {
			return penalty
		}
		if attempt >= fault.MaxReadRetries {
			c.st.Add(stats.IdxECCUncorrectable, int64(out.Uncorrectable))
			if c.faultErr == nil && !inj.Config().ContinueOnUncorrectable {
				c.faultErr = &fault.UncorrectableError{
					Coord: r.Coord, Orient: r.Orient, TimePs: c.eng.Now(),
				}
			}
			return penalty
		}
		c.st.Inc(stats.IdxECCRetries)
		inj.RecordRetry()
		c.banks[r.bank].Retries++
		penalty += c.retryPs
	}
}

// issueTier serves a request from the DRAM tier: the NVM bank is never
// touched (no activation, no bank-busy window), only the HitPs DRAM
// access and the shared channel data bus. Returns false when the row is
// not resident — note that the Serve call for a column-orientation
// request also applies the tier's coherence policy (queueing demotion
// write-backs that issue() drains afterwards) before falling through to
// the device.
func (c *Controller) issueTier(r *Request, now int64, bank int) bool {
	if !c.tr.Serve(now, r.Coord, r.Orient, r.Write || r.Writeback) {
		return false
	}
	dataAt := now + c.tr.Config().HitPs
	transferStart := dataAt
	if c.busFreeAt > transferStart {
		transferStart = c.busFreeAt
	}
	finish := transferStart + c.burstPs
	c.busFreeAt = finish

	if c.rec != nil {
		tid := int64(bank)
		if now > r.arrive {
			c.rec.Sim(c.proc, "queue", obs.CatMem, tid, r.arrive, now-r.arrive)
		}
		c.rec.Sim(c.proc, "dram_hit", obs.CatMem, tid, now, dataAt-now)
		c.rec.Sim(c.proc, "burst", obs.CatMem, tid, transferStart, finish-transferStart)
	}

	b := &c.banks[bank]
	b.Queued--
	b.BusBusyPs += finish - transferStart
	switch {
	case r.Writeback:
		c.st.Inc(stats.IdxMemWritebacks)
		b.Writebacks++
	case r.Write:
		c.st.Inc(stats.IdxMemWrites)
		b.Writes++
	default:
		c.st.Inc(stats.IdxMemReads)
		b.Reads++
	}
	if r.Done != nil {
		c.eng.AtCall(finish, requestDone, r.Done, 0)
	}
	if r.pooled && c.pool != nil {
		c.pool.put(r)
	}
	return true
}

// drainTier submits the tier's queued demotion write-backs through the
// router as ordinary write-back requests, so dirty rows leaving DRAM pass
// through the normal device write path (wear accounting, SECDED domain).
// One pop at a time: a Submit can re-enter the scheduler, whose issues
// may queue further write-backs onto the same queue.
func (c *Controller) drainTier() {
	for {
		wb, ok := c.tr.PopWriteback()
		if !ok {
			return
		}
		req := c.rt.Alloc()
		req.Coord = wb.Coord
		req.Orient = addr.Row
		req.Write = true
		req.Writeback = true
		c.rt.Submit(req)
	}
}

// issue runs one request through the device and the channel data bus.
func (c *Controller) issue(r *Request) {
	now, bank := c.eng.Now(), r.bank
	if c.tr != nil && !r.Gather && c.issueTier(r, now, bank) {
		c.drainTier()
		return
	}
	res := c.dev.Access(now, r.Coord, r.Orient, r.Write)
	if inj := c.dev.Faults(); inj != nil && res.CellRead && !r.Write && !r.Writeback {
		if penalty := c.eccCheck(inj, r); penalty > 0 {
			res.DataAt += penalty
			res.ReadyAt += penalty
		}
	}

	transferStart := res.DataAt
	if c.busFreeAt > transferStart {
		transferStart = c.busFreeAt
	}
	finish := transferStart + c.burstPs
	c.busFreeAt = finish

	if c.rec != nil {
		tid := int64(bank)
		if now > r.arrive {
			c.rec.Sim(c.proc, "queue", obs.CatMem, tid, r.arrive, now-r.arrive)
		}
		phase := "activate"
		if res.BufferHit {
			phase = "hit"
		}
		var args map[string]int64
		if r.Orient == addr.Column {
			args = map[string]int64{"column": 1}
		}
		c.rec.Add(obs.Span{Proc: c.proc, Name: phase, Cat: obs.CatMem, TID: tid,
			Start: now, Dur: res.DataAt - now, Sim: true, Args: args})
		c.rec.Sim(c.proc, "burst", obs.CatMem, tid, transferStart, finish-transferStart)
	}

	b := &c.banks[bank]
	b.Queued--
	b.BusBusyPs += finish - transferStart
	switch {
	case r.Orient == addr.Column && res.BufferHit:
		b.ColHits++
	case r.Orient == addr.Column:
		b.ColMisses++
	case res.BufferHit:
		b.RowHits++
	default:
		b.RowMisses++
	}
	switch {
	case r.Gather:
		c.st.Inc(stats.IdxMemGathers)
		c.st.Inc(stats.IdxMemReads)
		b.Reads++
	case r.Writeback:
		c.st.Inc(stats.IdxMemWritebacks)
		b.Writebacks++
	case r.Write:
		c.st.Inc(stats.IdxMemWrites)
		b.Writes++
	default:
		c.st.Inc(stats.IdxMemReads)
		b.Reads++
	}

	c.bankBusy[bank] = true
	// The bank accepts its next command at ReadyAt (command pipelining);
	// the requester sees data only when the bus transfer completes.
	c.eng.AtCall(res.ReadyAt, bankReady, c, int64(bank))
	if r.Done != nil {
		// finish >= now, so the callback fires with exactly finish.
		c.eng.AtCall(finish, requestDone, r.Done, 0)
	}
	tierDrain := false
	if c.tr != nil && !r.Gather {
		// Feed the migration policy with the access the NVM actually
		// served; the promotion copy can start once the bank has the row
		// in its buffer (ReadyAt).
		c.tr.OnNVMAccess(now, r.Coord, r.Orient, res.BufferHit, r.Writeback, res.ReadyAt)
		tierDrain = true
	}
	// Everything the scheduled events need has been copied out; a pooled
	// request can serve the next miss.
	if r.pooled && c.pool != nil {
		c.pool.put(r)
	}
	if tierDrain {
		// Demotions queued by this access (column coherence, promotion
		// evictions) go back through the normal write path — after the
		// pooled request is recycled, since Submit may reuse it.
		c.drainTier()
	}
}

// Router fans requests out to the per-channel controllers of one device.
type Router struct {
	ctrls []*Controller
	dev   *device.Device
	pool  requestPool
}

// NewRouter builds one controller per channel of dev.
func NewRouter(eng *event.Engine, dev *device.Device, st *stats.Block, window int) *Router {
	n := dev.Config().Geom.Channels()
	r := &Router{dev: dev}
	r.ctrls = make([]*Controller, n)
	for i := range r.ctrls {
		r.ctrls[i] = NewController(eng, dev, st, window)
		r.ctrls[i].pool = &r.pool
		r.ctrls[i].rt = r
	}
	return r
}

// Reset returns every channel controller to its just-built state (empty
// queue, idle bus and banks, no recorded fault). Policy, tier and observers
// stay as set; the request free list stays filled.
func (r *Router) Reset() {
	for _, c := range r.ctrls {
		clear(c.queue)
		c.queue = c.queue[:0]
		clear(c.bankBusy)
		c.busFreeAt, c.faultErr = 0, nil
	}
}

// SetTier installs a hybrid DRAM tier shared by every channel controller:
// tier-resident rows are served at DRAM latency without touching their
// NVM bank, and tier demotions are written back through the normal device
// path. nil disables the tier (the default); the disabled check is a
// single pointer comparison per request, keeping the pure-NVM path
// byte-identical and allocation-free.
func (r *Router) SetTier(t *tier.Cache) {
	for _, c := range r.ctrls {
		c.tr = t
	}
}

// Tier returns the installed DRAM tier (nil when disabled).
func (r *Router) Tier() *tier.Cache {
	return r.ctrls[0].tr
}

// Alloc returns a zeroed Request from the router's free list. Requests
// obtained here are recycled automatically once their transfer has been
// issued and the Done callback captured, so the caller must not retain the
// pointer after Submit.
func (r *Router) Alloc() *Request {
	return r.pool.get()
}

// SetPolicy switches every channel's scheduling policy.
func (r *Router) SetPolicy(p Policy) {
	for _, c := range r.ctrls {
		c.SetPolicy(p)
	}
}

// SetRecorder installs a span recorder on every channel. Each issued
// request records its queue, activate-or-hit, and burst phases as sim-time
// spans under process name proc with the bank index as the lane. nil
// disables recording (the default).
func (r *Router) SetRecorder(rec *obs.Recorder, proc string) {
	for _, c := range r.ctrls {
		c.rec, c.proc = rec, proc
	}
}

// Submit routes the request to its channel's controller.
func (r *Router) Submit(req *Request) {
	r.ctrls[req.Coord.Channel].Submit(req)
}

// Pending returns the total queued requests across channels.
func (r *Router) Pending() int {
	n := 0
	for _, c := range r.ctrls {
		n += c.Pending()
	}
	return n
}

// Device returns the routed device.
func (r *Router) Device() *device.Device { return r.dev }

// FaultErr returns the earliest uncorrectable memory error any channel
// observed, or nil when the run was clean (or fault injection is off).
func (r *Router) FaultErr() error {
	var first *fault.UncorrectableError
	for _, c := range r.ctrls {
		if c.faultErr != nil && (first == nil || c.faultErr.TimePs < first.TimePs) {
			first = c.faultErr
		}
	}
	if first == nil {
		return nil // avoid a typed-nil error interface
	}
	return first
}
