package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"time"

	"prord/internal/httpfront"
)

// metricDef is one metric BENCHMARK.json declares.
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd are the metrics a user of the distributor sees, reported by
// untraced runs. On core a "request" is one decision-core sequence.
var endToEnd = []metricDef{
	{"throughput_rps", "1/s", "higher"},
	{"latency_p50_us", "us", "lower"},
	{"latency_p99_us", "us", "lower"},
	{"server_cpu_us_per_req", "us", "lower"},
	{"server_rss_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// reach reports 0: the httpfront and cache rows on core, the per-call
// dispatch rows on hot and miss.
var perLayer = []metricDef{
	{"httpfront.serve_p50_us", "us", "lower"},
	{"httpfront.serve_p99_us", "us", "lower"},
	{"httpfront.self_us_per_req", "us", "lower"},
	{"httpfront.backend_conns_per_req", "ratio", "lower"},
	{"httpfront.front_conns_per_session", "ratio", "lower"},
	{"httpfront.backend_reqs_per_demand", "ratio", "lower"},
	{"httpfront.hints_per_page", "ratio", "lower"},
	{"httpfront.hints_dropped", "count", "lower"},
	{"health.hedges_per_req", "ratio", "lower"},
	{"health.hedge_win_ratio", "ratio", "higher"},
	{"health.breaker_trips", "count", "lower"},
	{"dispatch.dispatch_per_req", "ratio", "lower"},
	{"dispatch.switches_per_req", "ratio", "lower"},
	{"dispatch.prefetch_per_req", "ratio", "lower"},
	{"dispatch.admit_ns_p50", "ns", "lower"},
	{"dispatch.admit_ns_p99", "ns", "lower"},
	{"dispatch.admit_share", "ratio", "lower"},
	{"dispatch.route_ns_p50", "ns", "lower"},
	{"dispatch.route_ns_p99", "ns", "lower"},
	{"dispatch.route_share", "ratio", "lower"},
	{"dispatch.done_ns_p50", "ns", "lower"},
	{"dispatch.done_ns_p99", "ns", "lower"},
	{"dispatch.done_share", "ratio", "lower"},
	{"dispatch.finish_ns_p50", "ns", "lower"},
	{"dispatch.finish_ns_p99", "ns", "lower"},
	{"dispatch.finish_share", "ratio", "lower"},
	{"dispatch.plan_ns_p50", "ns", "lower"},
	{"dispatch.plan_ns_p99", "ns", "lower"},
	{"dispatch.plan_share", "ratio", "lower"},
	{"policy.route_ns_mean", "ns", "lower"},
	{"policy.calls_per_req", "ratio", "lower"},
	{"overload.tier_transitions", "count", "lower"},
	{"cache.hit_rate", "ratio", "higher"},
	{"cache.backend_load_skew", "ratio", "lower"},
	{"cache.backend_serve_us_mean", "us", "lower"},
	{"cache.prefetch_precision", "ratio", "higher"},
	{"trace.generate_s", "s", "lower"},
	{"mining.mine_s", "s", "lower"},
	{"client.cpu_us_per_req", "us", "lower"},
	{"client.sessions_started", "count", "higher"},
	{"client.latency_samples", "count", "higher"},
	{"client.pool_wraps", "count", "lower"},
	{"failed_ratio", "ratio", "lower"},
	{"bench.tracing_overhead", "ratio", "higher"},
}

// setupRuns is how many times an untraced run starts the server; setup_s
// is their median. The last start serves the measured window.
const setupRuns = 5

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is one measured window on one server process.
type phase struct {
	ready     readyInfo
	window    time.Duration
	ok        int64
	attempted int64
	failed    int64
	slots     slotStats
	live      *liveWindow
	core      *coreResult
	spans     []span
}

func (p *phase) throughput() float64 { return float64(p.ok) / p.window.Seconds() }

// rssSeries is the server's VmRSS (MB) at the window's second boundaries.
func (p *phase) rssSeries() []float64 {
	if p.core != nil {
		return p.core.RSS
	}
	return p.live.serverRSS
}

// runner runs one workload at one seed and collects what went wrong.
type runner struct {
	w        workload
	seed     int64
	window   time.Duration
	in       *inputs // live workloads: the generator's copy of the inputs
	problems []string
	// attempted and failed sum the phases' measured requests.
	attempted, failed int64
}

func (r *runner) problemf(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// measure runs one warm-up and one measured window against srv and
// checks the outcome: every request correct, the core's bookings back
// to zero at quiescence, the window as long as asked.
func (r *runner) measure(srv *server, traced bool) (*phase, error) {
	p := &phase{ready: srv.ready}
	var outside int64
	var firstErr error
	var q quiesceReport
	if r.w.Core {
		var cr coreResult
		path := fmt.Sprintf("/core?warmup=%s&window=%s", r.w.Warmup, r.window)
		if err := getJSON(srv.ready.Ctl, path, &cr); err != nil {
			return nil, err
		}
		p.core, p.window, p.ok, p.slots, p.spans = &cr, cr.Window, cr.Seqs, cr.Slots, cr.Spans
		p.attempted, p.failed, outside, q = cr.Attempted, cr.Failed, cr.Outside, cr.Quiesce
		if cr.FirstErr != "" {
			firstErr = errors.New(cr.FirstErr)
		}
	} else {
		lw, err := measureLive(srv, r.in, traced, r.w.Warmup, r.window)
		if err != nil {
			return nil, err
		}
		p.live, p.window = &lw, lw.window
		slots := len(lw.serverCPU) - 1
		lat, ok := make([][]int64, slots), make([]int64, slots)
		for i := range lw.tallies {
			t := &lw.tallies[i]
			for k := range lat {
				lat[k] = append(lat[k], t.lat[k]...)
				ok[k] += int64(len(t.lat[k]))
				p.ok += int64(len(t.lat[k]))
			}
			p.attempted += t.attempted
			p.failed += t.failed
			outside += t.outside
			if t.err != nil && firstErr == nil {
				firstErr = t.err
			}
			p.spans = append(p.spans, t.spans...)
		}
		if p.slots, err = newSlotStats("client requests", lat, ok, lw.serverCPU); err != nil {
			return nil, err
		}
		if err := getJSON(srv.ready.Ctl, "/quiesce", &q); err != nil {
			return nil, err
		}
		if traced {
			var server []span
			if err := getJSON(srv.ready.Ctl, "/spans", &server); err != nil {
				return nil, err
			}
			p.spans = append(p.spans, server...)
		}
	}
	r.attempted += p.attempted
	r.failed += p.failed
	if p.failed+outside > 0 {
		r.problemf("%d requests failed (%d in the window), first: %v", p.failed+outside, p.failed, firstErr)
	}
	if !q.clean() {
		r.problemf("decision core not quiescent after the load stopped: %s", q)
	}
	if p.window < r.window {
		r.problemf("measured window %v shorter than %v", p.window, r.window)
	}
	return p, nil
}

// setupAndMeasure starts the untraced server setupRuns times, keeps the
// last and measures it, returning the phase and the median set-up time.
func (r *runner) setupAndMeasure() (*phase, float64, error) {
	var setups []float64
	var srv *server
	for i := 0; i < setupRuns; i++ {
		s, err := startServer(r.w, r.seed, false)
		if err != nil {
			return nil, 0, err
		}
		setups = append(setups, s.setup.Seconds())
		if i == setupRuns-1 {
			srv = s
		} else if err := s.stop(); err != nil {
			return nil, 0, err
		}
	}
	p, err := r.measure(srv, false)
	if serr := srv.stop(); err == nil && serr != nil {
		err = serr
	}
	return p, medianOf(setups), err
}

// measureOnce starts one server and measures it.
func (r *runner) measureOnce(traced bool) (*phase, error) {
	srv, err := startServer(r.w, r.seed, traced)
	if err != nil {
		return nil, err
	}
	p, err := r.measure(srv, traced)
	if serr := srv.stop(); err == nil && serr != nil {
		err = serr
	}
	return p, err
}

// endToEndMetrics are medians over the window's slots; server_rss_mb is
// the median of the server's VmRSS read at the slot boundaries.
func endToEndMetrics(p *phase, setupS float64) map[string]float64 {
	st := p.slots
	rps := make([]float64, len(st.OK))
	cpuPerReq := make([]float64, len(st.OK))
	var start time.Duration
	for k, n := range st.OK {
		d := time.Duration(st.Secs[k]) * time.Second
		if k == len(st.OK)-1 {
			d = p.window - start // the last slot ends when the window does
		}
		start += d
		rps[k] = float64(n) / d.Seconds()
		cpuPerReq[k] = ratio(float64(st.CPU[k].Nanoseconds())/1e3, float64(n))
	}
	return map[string]float64{
		"throughput_rps":        medianOf(rps),
		"latency_p50_us":        medianOf(st.P50) / 1e3,
		"latency_p99_us":        medianOf(st.P99) / 1e3,
		"server_cpu_us_per_req": medianOf(cpuPerReq),
		"server_rss_mb":         medianOf(p.rssSeries()),
		"setup_s":               setupS,
	}
}

// perLayerMetrics reads the traced phase t; u is the untraced phase run
// just before it, the base of the tracing overhead.
func perLayerMetrics(u, t *phase) (map[string]float64, error) {
	m := map[string]float64{
		"trace.generate_s":       t.ready.GenerateS,
		"mining.mine_s":          t.ready.MineS,
		"client.latency_samples": float64(t.slots.All.N),
		"failed_ratio":           ratio(float64(t.failed), float64(t.attempted)),
		"bench.tracing_overhead": t.throughput() / u.throughput(),
	}
	var before, after snapshot
	if t.core != nil {
		before, after = t.core.Before, t.core.After
		for c, name := range coreCalls {
			cs := t.core.Calls[c]
			m["dispatch."+name+"_ns_p50"] = float64(cs.P50)
			m["dispatch."+name+"_ns_p99"] = float64(cs.P99)
			m["dispatch."+name+"_share"] = cs.Share
		}
		m["client.sessions_started"] = float64(t.core.Sessions)
		m["client.pool_wraps"] = float64(t.core.PoolWraps)
	} else {
		lw := t.live
		before, after = lw.before, lw.after
		var hits, misses, pages, sessions float64
		for _, c := range lw.tallies {
			hits += float64(c.hits)
			misses += float64(c.misses)
			pages += float64(c.pages)
			sessions += float64(c.sessions)
		}
		front, err := frontSpans(link(t.spans))
		if err != nil {
			return nil, err
		}
		m["httpfront.serve_p50_us"] = float64(front.serve.P50) / 1e3
		m["httpfront.serve_p99_us"] = float64(front.serve.P99) / 1e3
		m["httpfront.self_us_per_req"] = front.selfNsPerReq / 1e3
		m["cache.backend_serve_us_mean"] = front.backendServeNsMn / 1e3
		reqs := float64(after.Dist.Requests - before.Dist.Requests)
		m["httpfront.backend_conns_per_req"] = ratio(float64(after.BackendAccepts-before.BackendAccepts), reqs)
		m["httpfront.front_conns_per_session"] = ratio(float64(after.FrontAccepts-before.FrontAccepts), sessions)
		m["httpfront.backend_reqs_per_demand"] = ratio(float64(after.Legs-before.Legs), reqs)
		m["httpfront.hints_per_page"] = ratio(float64(after.Hints-before.Hints), pages)
		m["httpfront.hints_dropped"] = float64(after.Dist.PrefetchHintsDropped - before.Dist.PrefetchHintsDropped)
		fired := float64(after.Gray.HedgesFired - before.Gray.HedgesFired)
		m["health.hedges_per_req"] = ratio(fired, reqs)
		m["health.hedge_win_ratio"] = ratio(float64(after.Gray.HedgeWins-before.Gray.HedgeWins), fired)
		m["cache.hit_rate"] = ratio(hits, hits+misses)
		m["cache.backend_load_skew"] = loadSkew(before.Backends, after.Backends)
		// Over the whole run, not the window: a hint sent before the window
		// may be demanded in it.
		m["cache.prefetch_precision"] = ratio(float64(after.UsefulHints), float64(after.Hints))
		clientCPU := lw.clientCPU[len(lw.clientCPU)-1] - lw.clientCPU[0]
		m["client.cpu_us_per_req"] = float64(clientCPU.Microseconds()) / float64(t.ok)
		m["client.sessions_started"] = sessions
		m["client.pool_wraps"] = float64(lw.wraps)
	}
	reqs := float64(after.Dist.Requests - before.Dist.Requests)
	m["health.breaker_trips"] = float64(after.Trips)
	m["overload.tier_transitions"] = float64(after.Tiers)
	m["dispatch.dispatch_per_req"] = ratio(float64(after.Dist.Dispatches-before.Dist.Dispatches), reqs)
	m["dispatch.switches_per_req"] = ratio(float64(after.Dist.Handoffs-before.Dist.Handoffs), reqs)
	m["dispatch.prefetch_per_req"] = ratio(float64(after.Dist.Prefetches-before.Dist.Prefetches), reqs)
	calls := float64(after.PolicyCalls - before.PolicyCalls)
	m["policy.route_ns_mean"] = ratio(float64(after.PolicyNs-before.PolicyNs), calls)
	m["policy.calls_per_req"] = ratio(calls, reqs)
	return m, nil
}

// loadSkew is the busiest backend's demand count over the mean, within
// the window.
func loadSkew(before, after []httpfront.DemoStats) float64 {
	var most, total float64
	for i := range after {
		n := float64(after[i].Served - before[i].Served)
		most = max(most, n)
		total += n
	}
	return ratio(most, total/float64(len(after)))
}

// ctlClient talks to a server's control listener; a core window runs
// inside one call.
var ctlClient = &http.Client{Timeout: 150 * time.Second}

func getJSON(ctl, path string, v any) error {
	resp, err := ctlClient.Get("http://" + ctl + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var msg [512]byte
		n, _ := resp.Body.Read(msg[:])
		return fmt.Errorf("server %s: status %d: %s", path, resp.StatusCode, msg[:n])
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
