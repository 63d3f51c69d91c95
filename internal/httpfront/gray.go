package httpfront

import (
	"context"
	"net/http"
	"sync"
	"time"

	"prord/internal/health"
	"prord/internal/overload"
	"prord/internal/trace"
)

// GrayConfig enables the gray-failure resilience layer on the live
// front-end: a relative latency-outlier detector that soft-excludes
// degraded backends (ejection plus progressive session rebinding),
// hedged backup requests for idempotent static content, and
// tier-derived per-request deadline budgets. The detection and hedging
// machinery is the same code the simulator runs (cluster.GrayConfig);
// this layer adds the live substrate: wall-clock ticking, cancelable
// proxy legs and the winner-takes-the-writer race.
type GrayConfig struct {
	// Detector tunes the relative latency-outlier detector; zero fields
	// take the health package defaults.
	Detector health.DetectorConfig
	// Hedge enables hedged backup requests: when an idempotent (GET or
	// HEAD) static request is still unanswered after the detector's
	// pooled-p95 hedge delay, one backup goes to the best non-degraded
	// backend holding the file and the first committed response wins;
	// the loser's transfer is canceled. Hedging stands down at
	// Saturated tier and above — duplicating work under overload makes
	// the overload worse.
	Hedge bool
	// HedgeCap bounds outstanding hedged requests per backend; 0
	// defaults to 2.
	HedgeCap int
	// Deadline is the per-request deadline budget at Normal and
	// Elevated tiers; it halves at Saturated and quarters at Critical,
	// spending less of the cluster on any one request exactly when
	// capacity is scarce. One budget covers the whole request — every
	// failover attempt and any hedged backup. 0 disables deadlines.
	Deadline time.Duration
}

// withDefaults fills zero fields.
func (g GrayConfig) withDefaults() GrayConfig {
	g.Detector = g.Detector.WithDefaults()
	if g.HedgeCap == 0 {
		g.HedgeCap = 2
	}
	return g
}

// GrayStats are the resilience layer's live counters, mirroring the
// simulator's GrayResult for the cluster stats endpoint.
type GrayStats struct {
	Ejections    int64 `json:"ejections"`
	Recoveries   int64 `json:"recoveries"`
	GrayRebinds  int64 `json:"gray_rebinds"`
	HedgesFired  int64 `json:"hedges_fired"`
	HedgeWins    int64 `json:"hedge_wins"`
	HedgeCancels int64 `json:"hedge_cancels"`
	// Degraded lists the currently ejected backends.
	Degraded []int `json:"degraded,omitempty"`
}

// Gray returns the resilience layer's counters, or nil when the layer
// is disabled.
func (d *Distributor) Gray() *GrayStats {
	if d.detector == nil {
		return nil
	}
	cs := d.core.Stats()
	g := &GrayStats{
		Ejections:    d.detector.Ejections(),
		Recoveries:   d.detector.Recoveries(),
		GrayRebinds:  cs.GrayRebinds,
		HedgesFired:  cs.HedgesFired,
		HedgeWins:    cs.HedgeWins,
		HedgeCancels: d.hedgeCancels.Load(),
	}
	for i, b := range d.detector.Snapshot() {
		if b.Degraded {
			g.Degraded = append(g.Degraded, i)
		}
	}
	return g
}

// observeLatency feeds the detector one completed proxied attempt.
func (d *Distributor) observeLatency(server int, lat time.Duration) {
	if d.detector != nil {
		d.detector.Observe(server, lat, time.Now())
	}
}

// grayTickLoop advances the detector's dwell and probation clocks while
// traffic is sparse, so ejected backends still readmit on schedule.
func (d *Distributor) grayTickLoop(stop <-chan struct{}, interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			d.detector.Tick(time.Now())
		}
	}
}

// scaledDeadline derives the effective per-request budget from the
// overload tier: full at Normal and Elevated, half at Saturated, a
// quarter at Critical.
func scaledDeadline(base time.Duration, tier overload.Tier) time.Duration {
	switch {
	case base <= 0:
		return 0
	case tier >= overload.Critical:
		return base / 4
	case tier >= overload.Saturated:
		return base / 2
	}
	return base
}

// deadlineBudget returns the current request deadline budget (0 when
// deadlines are disabled).
func (d *Distributor) deadlineBudget() time.Duration {
	return scaledDeadline(d.gray.Deadline, d.core.Tier())
}

// hedgeable reports whether a path is worth arming a hedge for right
// now: the layer is on, the content is static (idempotent to duplicate)
// and the detector has published a hedge delay.
func (d *Distributor) hedgeable(path string) bool {
	if d.detector == nil || !d.gray.Hedge {
		return false
	}
	if trace.IsDynamicPath(path) {
		return false
	}
	return d.detector.HedgeDelay() > 0
}

// proxyTo runs one reverse-proxy attempt, absorbing the ErrAbortHandler
// panic net/http's ReverseProxy raises when a response copy is cut off
// mid-stream (deadline-budget expiry, hedge-race cancellation, client
// disconnect). The request's bookings must be released by the caller no
// matter how the copy ended, so the abort cannot be allowed to unwind
// ServeHTTP.
func (d *Distributor) proxyTo(server int, w http.ResponseWriter, r *http.Request) {
	defer func() {
		if e := recover(); e != nil && e != http.ErrAbortHandler {
			panic(e)
		}
	}()
	d.proxies[server].ServeHTTP(w, r)
}

// hedgedAttempt is the bookkeeping for one primary attempt with an
// armed hedge timer. Its mutex is a leaf lock (lock class
// hedgedAttempt.mu) guarding the primary-returned / backup-launched
// handshake; the proxy work itself runs outside it.
type hedgedAttempt struct {
	mu          sync.Mutex
	primaryDone bool
	launched    bool
	cancelP     context.CancelFunc
	cancelB     context.CancelFunc

	// done closes when the backup goroutine finishes (only ever closed
	// after launched is set; the primary waits on it in that case).
	done chan struct{}

	// Written by the backup goroutine before close(done); read by the
	// primary goroutine after <-done.
	fired     bool
	target    int
	backupWon bool
}

func (h *hedgedAttempt) cancelBackup() {
	h.mu.Lock()
	f := h.cancelB
	h.mu.Unlock()
	if f != nil {
		f()
	}
}

func (h *hedgedAttempt) cancelPrimary() {
	h.mu.Lock()
	f := h.cancelP
	h.mu.Unlock()
	if f != nil {
		f()
	}
}

// proxyHedged runs the first attempt of an idempotent request with a
// hedged backup armed: if the primary has not answered after the
// detector's pooled-p95 hedge delay, one backup goes to the best
// non-degraded holder of the file and the first committed response
// wins; the loser's transfer is canceled without goroutine or
// connection leaks (both legs are context-bound and the caller waits
// for both to return). It returns the primary's attempt writer, whose
// outcome the caller accounts, and the backend that answered the
// client — the backup's when it won the race.
func (d *Distributor) proxyHedged(rep *reply, r *http.Request, path string, primary int) (prim *attempt, winner int) {
	h := &hedgedAttempt{done: make(chan struct{})}
	ctxP, cancelP := context.WithCancel(r.Context())
	defer cancelP()
	h.cancelP = cancelP
	// Neither leg is final: a 5xx never claims the client while the other
	// leg can still answer.
	prim = rep.attempt(ctxP, primary, false)
	prim.cancel, prim.onClaim = cancelP, h.cancelBackup
	timer := time.AfterFunc(d.detector.HedgeDelay(), func() { d.fireHedge(h, rep, r, path, primary) })
	d.proxyTo(primary, prim, r.WithContext(ctxP))
	h.mu.Lock()
	h.primaryDone = true
	launched := h.launched
	h.mu.Unlock()
	timer.Stop()
	if launched {
		<-h.done
	}
	if h.fired {
		if h.backupWon {
			return prim, h.target
		}
		if prim.outcome() != failed {
			// The primary answered first (or the client left): the backup
			// was moot.
			d.hedgeCancels.Add(1)
		}
	}
	if prim.outcome() == failed {
		// Neither leg answered. A failed racing leg's head never reaches
		// the client: a status-text reply carries only X-Prord-Backend.
		clear(prim.header)
	}
	return prim, primary
}

// fireHedge is the hedge timer's callback: book and run the backup leg.
// It runs on the timer goroutine; once it marks itself launched, the
// primary goroutine waits for h.done, so the backup can never outlive
// the request.
func (d *Distributor) fireHedge(h *hedgedAttempt, rep *reply, r *http.Request, path string, primary int) {
	h.mu.Lock()
	if h.primaryDone {
		h.mu.Unlock()
		return
	}
	h.launched = true
	h.mu.Unlock()
	defer close(h.done)
	// Mirror the simulator's stand-down checks at fire time.
	if d.core.Tier() >= overload.Saturated {
		return
	}
	target, ok := d.core.HedgeTarget(path, primary, time.Now())
	if !ok {
		return
	}
	if !d.core.TryBeginHedge(target, path, d.gray.HedgeCap) {
		return
	}
	h.fired, h.target = true, target
	ctxB, cancelB := context.WithCancel(r.Context())
	h.mu.Lock()
	h.cancelB = cancelB
	h.mu.Unlock()
	defer cancelB()
	backup := rep.attempt(ctxB, target, false)
	backup.cancel, backup.onClaim = cancelB, h.cancelPrimary
	d.beginAttempt(target)
	start := time.Now()
	d.proxyTo(target, backup, r.Clone(ctxB))
	o := backup.outcome()
	d.endAttempt(target, o)
	d.core.FinishHedge(target, path, o == failed, o == committed)
	if o == committed {
		d.observeLatency(target, time.Since(start))
		h.backupWon = true
	}
}
