package cluster

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rcnvm/internal/stats"
)

// node is one backend plus its health state. Health transitions come from
// two sources: the checker's periodic /readyz probes, and MarkDown calls
// from the router when a forwarded request already proved the node dead —
// waiting for the next probe round would send more requests into the
// hole.
type node struct {
	be Backend
	// name is the node's stable cluster label ("primary", "replica-0", ...)
	// used on federated metric series, per-backend latency histograms and
	// /cluster/stats rows.
	name string

	healthy atomic.Bool
	// downSince is the unix-nano timestamp of ejection (0 when healthy);
	// re-admission probes are throttled to the checker's backoff while a
	// node stays down, so a flapping replica cannot oscillate per-probe.
	downSince atomic.Int64
	// fails counts consecutive probe failures; owned by the checker
	// goroutine except for MarkDown's saturation store.
	fails atomic.Int32
	// rttNanos is the round-trip time of the most recent completed health
	// probe (0 until the first probe answers), successful or not.
	rttNanos atomic.Int64
	// lastFailure is the human-readable reason of the most recent probe or
	// forward failure (nil until the node first fails). It is evidence, not
	// state: it persists across re-admission so an operator can see why a
	// now-healthy node was last ejected.
	lastFailure atomic.Pointer[string]
	// ejections counts healthy->unhealthy transitions of this node.
	ejections atomic.Int64
	// lat is the router-side latency distribution of reads served by this
	// node (the time spent waiting on the backend, excluding dial). Set at
	// construction, observed lock-free on the forward path.
	lat *stats.Histogram
}

func (n *node) markDown() {
	if n.healthy.CompareAndSwap(true, false) {
		n.downSince.Store(time.Now().UnixNano())
	}
}

// noteFailure records why the node last failed (probe verdicts and
// forward errors both land here).
func (n *node) noteFailure(reason string) {
	n.lastFailure.Store(&reason)
}

// failureReason returns the most recent failure reason ("" if the node
// has never failed).
func (n *node) failureReason() string {
	if p := n.lastFailure.Load(); p != nil {
		return *p
	}
	return ""
}

// failThreshold is the consecutive probe-failure count that ejects a
// replica: one slow probe is not death. A forward failure ejects at once.
const failThreshold = 2

// checker probes every replica's /readyz on a fixed interval and flips
// node health. Ejection needs failThreshold consecutive failures;
// re-admission needs one success but waits out
// ReadmitBackoff from ejection, so a node that is cycling through
// crash-restart-crash does not bounce in and out of rotation.
type checker struct {
	nodes    []*node
	interval time.Duration
	timeout  time.Duration
	backoff  time.Duration
	onChange func(n *node, healthy bool)

	hc   *http.Client
	stop chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

func newChecker(nodes []*node, interval, timeout, backoff time.Duration, onChange func(*node, bool)) *checker {
	return &checker{
		nodes:    nodes,
		interval: interval,
		timeout:  timeout,
		backoff:  backoff,
		onChange: onChange,
		hc:       &http.Client{Timeout: timeout},
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

func (c *checker) start() {
	go func() {
		defer close(c.done)
		t := time.NewTicker(c.interval)
		defer t.Stop()
		for {
			c.sweep()
			select {
			case <-c.stop:
				return
			case <-t.C:
			}
		}
	}()
}

func (c *checker) close() {
	close(c.stop)
	<-c.done
}

// sweep probes every node once, concurrently (a hung node must not delay
// the others' verdicts past its own probe timeout).
func (c *checker) sweep() {
	var wg sync.WaitGroup
	for _, n := range c.nodes {
		wg.Add(1)
		go func(n *node) {
			defer wg.Done()
			c.probe(n)
		}(n)
	}
	wg.Wait()
}

func (c *checker) probe(n *node) {
	if !n.healthy.Load() {
		// Down node: throttle re-admission attempts to the backoff.
		if since := n.downSince.Load(); since != 0 && time.Since(time.Unix(0, since)) < c.backoff {
			return
		}
	}
	start := time.Now()
	ok, reason := c.ready(n.be.HTTP)
	n.rttNanos.Store(time.Since(start).Nanoseconds())
	if ok {
		n.fails.Store(0)
		if n.healthy.CompareAndSwap(false, true) {
			n.downSince.Store(0)
			if c.onChange != nil {
				c.onChange(n, true)
			}
		}
		return
	}
	n.noteFailure(reason)
	if n.fails.Add(1) >= failThreshold {
		if n.healthy.CompareAndSwap(true, false) {
			n.downSince.Store(time.Now().UnixNano())
			if c.onChange != nil {
				c.onChange(n, false)
			}
		} else {
			// Already down (or marked down by a forward failure): keep the
			// ejection clock current so the backoff window tracks the most
			// recent evidence.
			n.downSince.Store(time.Now().UnixNano())
		}
	}
}

// ready is one /readyz probe: healthy means 200 within the timeout. Any
// other status (503 during recovery/catch-up/drain) or transport failure
// counts as not ready — the router must not route there. The reason
// string ("" when ready) carries the transport error or the status plus
// the body the backend sent (its readiness gate explains itself there:
// "wal recovery", "replica catch-up", "draining").
func (c *checker) ready(httpAddr string) (ok bool, reason string) {
	resp, err := c.hc.Get("http://" + httpAddr + "/readyz")
	if err != nil {
		return false, err.Error()
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return true, ""
	}
	return false, fmt.Sprintf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
}
