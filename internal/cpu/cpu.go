// Package cpu implements the trace-driven multicore front end of the
// simulator. Each core executes its op stream in program order — a run
// record access by access, each followed by its compute, exactly the
// sequence trace.Stream.Expand lists — issuing one op per CPU cycle, with
// up to Window outstanding memory operations — a simple model of the
// memory-level parallelism an out-of-order core extracts. Compute ops
// advance the core's clock without occupying a miss slot; barriers drain
// outstanding misses (used at dependent phase boundaries such as scan ->
// fetch).
package cpu

import (
	"fmt"

	"rcnvm/internal/addr"
	"rcnvm/internal/cache"
	"rcnvm/internal/event"
	"rcnvm/internal/stats"
	"rcnvm/internal/trace"
)

// Config parameterizes the cores.
type Config struct {
	Cores      int
	Window     int   // max outstanding memory ops per core
	CyclePs    int64 // CPU clock period (500 ps at the paper's 2 GHz)
	IssueDelay int64 // cycles consumed issuing one op
	// OrderedWindow is the outstanding-ops bound for Ordered accesses
	// (strictly-ordered consumption has data/control dependencies that
	// defeat the full out-of-order window).
	OrderedWindow int
}

// DefaultConfig matches Table 1: 4 cores at 2.0 GHz. The window of 8
// approximates the MLP of a modern out-of-order core.
func DefaultConfig() Config {
	return Config{Cores: 4, Window: 8, CyclePs: 500, IssueDelay: 1, OrderedWindow: 2}
}

// Runner executes one trace stream per core against a cache hierarchy.
type Runner struct {
	cfg  Config
	eng  *event.Engine
	hier *cache.Hierarchy
	geom addr.Geometry
	st   *stats.Block

	cores    []*coreState
	running  int
	FinishAt int64 // time the last core retired its last op

	// latency collects the issue-to-completion time of every demand
	// memory operation (software prefetches excluded). Only the goroutine
	// running the engine touches it, so it takes no lock; Latency
	// publishes it.
	latency stats.Samples
}

type coreState struct {
	r    *Runner // back-pointer, so static event callbacks need only the core
	id   int
	step event.Timer // the core's issue step, registered once with the engine
	ops  trace.Stream
	// The cursor: record pc, access elem within it, and whether that
	// access has issued and its compute is what comes next.
	pc            int
	elem          uint32
	computeDue    bool
	outstanding   int
	blocked       bool // waiting for a slot or a barrier
	blockedSince  int64
	stepScheduled bool
	done          bool
}

// NewRunner builds a runner over the hierarchy.
func NewRunner(cfg Config, eng *event.Engine, hier *cache.Hierarchy, geom addr.Geometry, st *stats.Block) *Runner {
	r := &Runner{cfg: cfg, eng: eng, hier: hier, geom: geom, st: st}
	for i := 0; i < cfg.Cores; i++ {
		c := new(coreState)
		c.step = eng.NewTimer(stepEvent, c)
		r.cores = append(r.cores, c)
	}
	r.Reset()
	return r
}

// Reset returns the runner to its just-built state, no latency recorded.
func (r *Runner) Reset() {
	for i, c := range r.cores {
		*c = coreState{r: r, id: i, step: c.step}
	}
	r.running, r.FinishAt, r.latency = 0, 0, stats.Samples{}
}

// Latency returns the demand memory-op latencies recorded since the last
// Reset as a new histogram, which later runs leave alone.
func (r *Runner) Latency() *stats.Histogram { return r.latency.Histogram() }

// SetStream assigns the op stream of one core. Must be called before Start.
func (r *Runner) SetStream(core int, ops trace.Stream) {
	r.cores[core].ops = ops
}

// Start schedules the initial issue event of every core that has work.
func (r *Runner) Start() {
	for _, c := range r.cores {
		if len(c.ops) == 0 {
			c.done = true
			continue
		}
		r.running++
		r.scheduleStep(c, r.eng.Now())
	}
}

// Done reports whether every core has retired its stream.
func (r *Runner) Done() bool { return r.running == 0 }

// stepEvent is the static issue event of one core: the callback of the
// core's timer, with the core as ctx.
func stepEvent(ctx any, _, _ int64) {
	c := ctx.(*coreState)
	c.stepScheduled = false
	c.r.step(c)
}

func (r *Runner) scheduleStep(c *coreState, at int64) {
	if c.stepScheduled || c.done {
		return
	}
	c.stepScheduled = true
	r.eng.Arm(c.step, at)
}

// step issues ops until the core blocks (window full / barrier) or the
// stream ends.
func (r *Runner) step(c *coreState) {
	for {
		if c.pc >= len(c.ops) {
			if c.outstanding == 0 && !c.done {
				c.done = true
				r.running--
				if r.eng.Now() > r.FinishAt {
					r.FinishAt = r.eng.Now()
				}
			}
			return
		}
		op := &c.ops[c.pc]
		if c.computeDue {
			c.computeDue = false
			c.advance(op)
			r.compute(c, op.Cycles)
			return
		}
		switch op.Kind {
		case trace.Compute:
			c.pc++
			r.compute(c, op.Cycles)
			return
		case trace.Barrier:
			if c.outstanding > 0 {
				r.block(c)
				return
			}
			c.pc++
			r.st.Inc(stats.IdxOpsExecuted)
			continue
		case trace.UnpinAll:
			c.pc++
			r.st.Inc(stats.IdxOpsExecuted)
			r.hier.UnpinAll()
			continue
		case trace.Load, trace.Store, trace.CLoad, trace.CStore, trace.Gather:
			// Pinned (group-caching) prefetches retire at issue like
			// software prefetch instructions: they do not occupy a miss
			// slot, but barriers still wait for their completion.
			window := r.cfg.Window
			if op.Ordered && r.cfg.OrderedWindow > 0 && r.cfg.OrderedWindow < window {
				window = r.cfg.OrderedWindow
			}
			if !op.Pin && c.outstanding >= window {
				r.block(c)
				return
			}
			c.outstanding++
			r.st.Inc(stats.IdxOpsExecuted)
			r.issueMem(c, op)
			if op.Cycles > 0 {
				c.computeDue = true
			} else {
				c.advance(op)
			}
			// Issue bandwidth: one op per IssueDelay cycles.
			r.scheduleStep(c, r.eng.Now()+r.cfg.IssueDelay*r.cfg.CyclePs)
			return
		default:
			panic(fmt.Sprintf("cpu: unknown op kind %v", op.Kind))
		}
	}
}

// advance moves the cursor past the access it is on.
func (c *coreState) advance(op *trace.Op) {
	c.elem++
	if int(c.elem) >= op.Len() {
		c.pc++
		c.elem = 0
	}
}

// compute executes cycles of CPU work and resumes the core after it.
func (r *Runner) compute(c *coreState, cycles int64) {
	r.st.Inc(stats.IdxOpsExecuted)
	d := cycles * r.cfg.CyclePs
	r.st.Add(stats.IdxComputePs, d)
	r.scheduleStep(c, r.eng.Now()+d)
}

func (r *Runner) block(c *coreState) {
	if !c.blocked {
		c.blocked = true
		c.blockedSince = r.eng.Now()
	}
}

func (r *Runner) unblock(c *coreState) {
	if c.blocked {
		c.blocked = false
		r.st.Add(stats.IdxStallPs, r.eng.Now()-c.blockedSince)
	}
	r.scheduleStep(c, r.eng.Now())
}

// memDone is the static completion callback of one memory op: ctx is the
// issuing core, arg the issue time for demand ops (-1 for pinned software
// prefetches, which are excluded from the latency histogram).
func memDone(ctx any, arg, finish int64) {
	c := ctx.(*coreState)
	if arg >= 0 {
		c.r.latency.Observe(finish - arg)
	}
	c.outstanding--
	c.r.unblock(c)
}

// issueMem translates the access under the cursor into a cache access.
func (r *Runner) issueMem(c *coreState, op *trace.Op) {
	coord, gatherID := op.At(c.elem)
	var a cache.Access
	a.Core = c.id
	a.Write = op.Kind.IsWrite()
	a.Pin = op.Pin
	if op.Kind == trace.Gather {
		a.Key = cache.GatherKey(gatherID)
		a.MemCoord = coord
	} else {
		// The line's first word, and the key straight from its address: no
		// LineID is built on the way.
		o := op.Kind.Orientation()
		coord.Byte = 0
		if o == addr.Row {
			a.WordIdx = int(coord.Column) % addr.LineWords
			coord.Column &^= addr.LineWords - 1
		} else {
			a.WordIdx = int(coord.Row) % addr.LineWords
			coord.Row &^= addr.LineWords - 1
		}
		a.Key = cache.AddrKey(r.geom.Encode(coord, o), o)
		a.MemCoord = coord
	}
	start := r.eng.Now()
	if op.Pin {
		start = -1
	}
	r.hier.AccessCall(a, memDone, c, start)
}
