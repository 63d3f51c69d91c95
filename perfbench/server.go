package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"prord/internal/health"
	"prord/internal/httpfront"
	"prord/internal/mining"
	"prord/internal/overload"
	"prord/internal/policy"
)

// reqHeader carries the generator's request id through the distributor
// (ReverseProxy forwards it) to the backends, linking the spans of one
// request across both processes.
const reqHeader = "X-Bench-Req"

// distEcho is the distributor configuration actually built, as echoed in
// every result: the fields as passed to httpfront.New, with the
// overload and detector defaults resolved.
type distEcho struct {
	Policy             string                 `json:"policy"`
	Prefetch           bool                   `json:"prefetch"`
	MiningRefreshEvery int                    `json:"mining_refresh_every"`
	Retries            int                    `json:"retries"`
	ProbeInterval      time.Duration          `json:"probe_interval"`
	Overload           *overload.Config       `json:"overload"`
	Gray               *health.DetectorConfig `json:"gray_detector"`
	Hedge              bool                   `json:"hedge"`
	Fleet              bool                   `json:"fleet"`
	Autoscale          bool                   `json:"autoscale"`
}

// readyInfo is the server's READY line.
type readyInfo struct {
	Front         string   `json:"front,omitempty"`
	Ctl           string   `json:"ctl"`
	GOMAXPROCS    int      `json:"gomaxprocs"`
	GenerateS     float64  `json:"generate_s"`
	MineS         float64  `json:"mine_s"`
	Files         int      `json:"files"`
	SiteMiB       float64  `json:"site_mib"`
	TrainRequests int      `json:"train_requests"`
	EvalRequests  int      `json:"eval_requests"`
	Sessions      int      `json:"sessions"`
	Model         string   `json:"model"`
	Distributor   distEcho `json:"distributor"`
}

// deployedConfig is the distributor prord-server builds with its default
// flags: PRORD with the mined model and prefetch, overload control and
// the gray layer with hedging on, 1 s probes, in-place online mining,
// no fleet and no autoscale.
func deployedConfig(urls []*url.URL, pol policy.Policy, miner *mining.Miner) httpfront.Config {
	return httpfront.Config{
		Backends:           urls,
		Policy:             pol,
		Miner:              miner,
		Prefetch:           true,
		MiningRefreshEvery: 0,
		ProbeInterval:      time.Second,
		ProbeSeed:          siteSeed,
		Overload:           &overload.Config{},
		Gray:               &httpfront.GrayConfig{Hedge: true},
	}
}

func describeConfig(cfg httpfront.Config) distEcho {
	ov := cfg.Overload.WithDefaults()
	det := cfg.Gray.Detector.WithDefaults()
	return distEcho{
		Policy:             cfg.Policy.Name(),
		Prefetch:           cfg.Prefetch,
		MiningRefreshEvery: cfg.MiningRefreshEvery,
		Retries:            cfg.Retries,
		ProbeInterval:      cfg.ProbeInterval,
		Overload:           &ov,
		Gray:               &det,
		Hedge:              cfg.Gray.Hedge,
		Fleet:              cfg.Fleet != nil,
		Autoscale:          cfg.Autoscale != nil,
	}
}

// sut is the system under test: demo backends and the distributor in
// one process, as prord-server runs them, plus the benchmark's taps
// when traced.
type sut struct {
	w      workload
	in     *inputs
	dist   *httpfront.Distributor
	demos  []*httpfront.DemoBackend
	traced bool

	// Traced runs only.
	log            spanLog
	pol            *timedPolicy
	taps           []*backendTap
	frontAccepts   atomic.Int64
	backendAccepts atomic.Int64

	servers []*http.Server
}

func serveMain(args []string) int {
	fs := flag.NewFlagSet("prordbench server", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Int64("seed", 1, "trace seed")
	traced := fs.Bool("trace", false, "install the benchmark's taps and record spans")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	s, ready, err := startSUT(*name, *seed, *traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prordbench server:", err)
		return 1
	}
	b, err := json.Marshal(ready)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prordbench server:", err)
		return 1
	}
	fmt.Printf("READY %s\n", b)
	// The generator stops the server by closing stdin.
	_, _ = io.Copy(io.Discard, os.Stdin)
	s.close()
	return 0
}

func startSUT(name string, seed int64, traced bool) (*sut, readyInfo, error) {
	w, err := workloadByName(name)
	if err != nil {
		return nil, readyInfo{}, err
	}
	t0 := time.Now()
	in, err := buildInputs(w, seed)
	if err != nil {
		return nil, readyInfo{}, err
	}
	t1 := time.Now()
	miner := mining.Mine(in.train, mining.DefaultOptions())
	t2 := time.Now()

	s := &sut{w: w, in: in, traced: traced}
	ok := false
	defer func() {
		if !ok {
			s.close()
		}
	}()
	var urls []*url.URL
	for i := 0; i < w.Backends; i++ {
		if w.Core {
			// The core workload never proxies; the URLs are never dialed.
			urls = append(urls, &url.URL{Scheme: "http", Host: fmt.Sprintf("backend-%d.invalid", i)})
			continue
		}
		b := httpfront.NewDemoBackend(fmt.Sprintf("backend-%d", i), in.files,
			w.CacheMiB<<20, time.Duration(w.MissMs)*time.Millisecond)
		s.demos = append(s.demos, b)
		var h http.Handler = b
		if traced {
			tap := &backendTap{next: b, index: i, log: &s.log, hinted: make(map[string]bool)}
			s.taps = append(s.taps, tap)
			h = tap
		}
		mux := http.NewServeMux()
		mux.Handle("/_prord/stats", b.StatsHandler())
		mux.Handle("/", h)
		addr, err := s.serve(mux, &s.backendAccepts)
		if err != nil {
			return nil, readyInfo{}, err
		}
		urls = append(urls, &url.URL{Scheme: "http", Host: addr})
	}
	pol, err := policy.ByName("PRORD", w.Backends, policy.Thresholds{})
	if err != nil {
		return nil, readyInfo{}, err
	}
	if traced {
		s.pol = &timedPolicy{Policy: pol, log: &s.log}
		pol = s.pol
	}
	cfg := deployedConfig(urls, pol, miner)
	if s.dist, err = httpfront.New(cfg); err != nil {
		return nil, readyInfo{}, err
	}
	ready := readyInfo{
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		GenerateS:     t1.Sub(t0).Seconds(),
		MineS:         t2.Sub(t1).Seconds(),
		Files:         len(in.files),
		SiteMiB:       in.siteMiB,
		TrainRequests: len(in.train.Requests),
		EvalRequests:  len(in.eval.Requests),
		Sessions:      len(in.sessions),
		Model:         miner.Summary(),
		Distributor:   describeConfig(cfg),
	}
	if !w.Core {
		var h http.Handler = s.dist
		if traced {
			h = &frontTap{next: s.dist, log: &s.log}
		}
		mux := http.NewServeMux()
		mux.Handle("/_prord/stats", httpfront.StatsHandler(s.dist))
		mux.Handle("/_prord/cluster", httpfront.ClusterStatsHandler(s.dist, s.demos))
		mux.Handle("/", h)
		if ready.Front, err = s.serve(mux, &s.frontAccepts); err != nil {
			return nil, readyInfo{}, err
		}
	}
	ctl := http.NewServeMux()
	ctl.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) { writeJSON(w, s.snapshot()) })
	ctl.HandleFunc("/quiesce", func(w http.ResponseWriter, r *http.Request) { writeJSON(w, s.quiesce()) })
	ctl.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) { writeJSON(w, s.log.take()) })
	ctl.HandleFunc("/core", s.handleCore)
	if ready.Ctl, err = s.serve(ctl, nil); err != nil {
		return nil, readyInfo{}, err
	}
	ok = true
	return s, ready, nil
}

// serve starts an HTTP server on a fresh loopback port. With accepts
// non-nil on a traced run, it counts the listener's accepted connections.
func (s *sut) serve(h http.Handler, accepts *atomic.Int64) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	if s.traced && accepts != nil {
		ln = countingListener{Listener: ln, accepts: accepts}
	}
	srv := &http.Server{Handler: h}
	s.servers = append(s.servers, srv)
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "prordbench server:", err)
			os.Exit(1)
		}
	}()
	return ln.Addr().String(), nil
}

func (s *sut) close() {
	for _, srv := range s.servers {
		srv.Close()
	}
	if s.dist != nil {
		s.dist.Close()
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// snapshot is the server's public counters at one instant.
type snapshot struct {
	Dist     httpfront.Stats       `json:"dist"`
	Gray     httpfront.GrayStats   `json:"gray"`
	Tiers    int                   `json:"tier_transitions"`
	Trips    int64                 `json:"breaker_trips"`
	Backends []httpfront.DemoStats `json:"backends"`
	// Counted by the benchmark's taps (traced runs only).
	FrontAccepts   int64 `json:"front_accepts"`
	BackendAccepts int64 `json:"backend_accepts"`
	Legs           int64 `json:"legs"`
	Hints          int64 `json:"hints"`
	UsefulHints    int64 `json:"useful_hints"`
	PolicyCalls    int64 `json:"policy_calls"`
	PolicyNs       int64 `json:"policy_ns"`
}

func (s *sut) snapshot() snapshot {
	snap := snapshot{Dist: s.dist.Stats()}
	if g := s.dist.Gray(); g != nil {
		snap.Gray = *g
	}
	if ov := s.dist.Overload(); ov != nil {
		snap.Tiers = len(ov.Transitions)
	}
	for _, h := range s.dist.Health() {
		snap.Trips += h.Trips
	}
	for _, b := range s.demos {
		snap.Backends = append(snap.Backends, b.Stats())
	}
	snap.FrontAccepts = s.frontAccepts.Load()
	snap.BackendAccepts = s.backendAccepts.Load()
	for _, t := range s.taps {
		snap.Legs += t.legs.Load()
		snap.Hints += t.hints.Load()
		snap.UsefulHints += t.useful.Load()
	}
	if s.pol != nil {
		snap.PolicyCalls = s.pol.calls.Load()
		snap.PolicyNs = s.pol.ns.Load()
	}
	return snap
}

// quiesceReport is the decision core's booking state once traffic has
// stopped: every count must be back to zero.
type quiesceReport struct {
	Loads         []int  `json:"loads"`
	InFlightFiles int    `json:"inflight_files"`
	BusySessions  int    `json:"busy_sessions"`
	Problem       string `json:"problem,omitempty"`
}

func (q quiesceReport) clean() bool {
	for _, l := range q.Loads {
		if l != 0 {
			return false
		}
	}
	return q.InFlightFiles == 0 && q.BusySessions == 0 && q.Problem == ""
}

func (q quiesceReport) String() string {
	return fmt.Sprintf("loads %v, %d files in flight, %d busy sessions, session check %q",
		q.Loads, q.InFlightFiles, q.BusySessions, q.Problem)
}

// quiesce waits up to two seconds for the core's bookings to drain — a
// client can read a response before the handler's Done runs — and
// reports them; a leak stays non-zero.
func (s *sut) quiesce() quiesceReport {
	deadline := time.Now().Add(2 * time.Second)
	for {
		c := s.dist.Core()
		_, busy, problem := c.SessionCheck()
		q := quiesceReport{Loads: c.Loads(), InFlightFiles: c.InFlightFiles(), BusySessions: busy, Problem: problem}
		if q.clean() || time.Now().After(deadline) {
			return q
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// countingListener counts accepted connections.
type countingListener struct {
	net.Listener
	accepts *atomic.Int64
}

func (l countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
	}
	return c, err
}

func requestID(r *http.Request) uint64 {
	id, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
	return id
}

// frontTap records an httpfront.serve span around Distributor.ServeHTTP.
type frontTap struct {
	next http.Handler
	log  *spanLog
}

func (t *frontTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now().UnixNano()
	t.next.ServeHTTP(w, r)
	t.log.add(span{Kind: spFront, Start: start, End: time.Now().UnixNano(), Req: requestID(r)})
}

// backendTap wraps DemoBackend.ServeHTTP: it records a backend.serve
// span per demand leg and counts prefetch hints, and which of them the
// same backend is later asked for on demand.
type backendTap struct {
	next  http.Handler
	index int
	log   *spanLog

	legs, hints, useful atomic.Int64

	mu     sync.Mutex
	hinted map[string]bool // hinted here and not demanded since
}

func (t *backendTap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := r.URL.Path
	switch {
	case r.Header.Get(httpfront.ProbeHeader) != "":
		t.next.ServeHTTP(w, r)
		return
	case r.Header.Get(httpfront.PrefetchHeader) != "":
		t.hints.Add(1)
		t.mu.Lock()
		t.hinted[path] = true
		t.mu.Unlock()
		t.next.ServeHTTP(w, r)
		return
	}
	t.legs.Add(1)
	t.mu.Lock()
	if t.hinted[path] {
		delete(t.hinted, path)
		t.useful.Add(1)
	}
	t.mu.Unlock()
	start := time.Now().UnixNano()
	t.next.ServeHTTP(w, r)
	t.log.add(span{Kind: spBackend, Start: start, End: time.Now().UnixNano(), Req: requestID(r), Conn: int64(t.index)})
}

// timedPolicy decorates Config.Policy, timing every Route call. While a
// sampled core sequence is running it also records policy.route spans.
type timedPolicy struct {
	policy.Policy
	log       *spanLog
	calls, ns atomic.Int64
	sampling  atomic.Int32
}

func (p *timedPolicy) Route(req policy.Request, v policy.View) policy.Decision {
	//lint:ignore clockflow a benchmark-only decorator timing live policy calls; the simulator never installs it
	t0 := time.Now()
	d := p.Policy.Route(req, v)
	//lint:ignore clockflow a benchmark-only decorator timing live policy calls; the simulator never installs it
	t1 := time.Now()
	p.calls.Add(1)
	p.ns.Add(int64(t1.Sub(t0)))
	if p.sampling.Load() > 0 {
		p.log.add(span{Kind: spPolicy, Start: t0.UnixNano(), End: t1.UnixNano(), Conn: int64(req.Conn)})
	}
	return d
}

// ConnClose forwards the core's connection cleanup to the decorated
// policy when it keeps per-connection state.
func (p *timedPolicy) ConnClose(conn int) {
	if cc, ok := p.Policy.(policy.ConnCloser); ok {
		cc.ConnClose(conn)
	}
}
