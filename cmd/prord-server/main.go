// Command prord-server runs a live PRORD web cluster on localhost: n demo
// backend servers (each with its own memory cache and simulated disk
// latency) behind the PRORD HTTP front-end distributor. The site content
// and the mined navigation model come from one of the paper's synthetic
// workloads.
//
// Usage:
//
//	prord-server -addr :8080 -backends 4 -policy PRORD
//	curl -s http://localhost:8080/g0/p0.html -D- -o /dev/null
//	curl -s http://localhost:8080/_prord/stats
//	curl -s http://localhost:8080/_prord/cluster   # incl. per-backend health
//
// Watch the X-Prord-Backend and X-Prord-Cache response headers to see
// locality routing and cache warming at work. Backend failures are
// handled by per-backend circuit breakers with failover retry; tune
// them with the -breaker-*, -probe-* and -retries flags. Overload
// control (the degrade ladder plus Critical-tier admission control) is
// on by default; tune it with the -overload-* flags or disable it with
// -overload=false. Shed responses are 503s carrying X-Prord-Shed and
// Retry-After; the current tier is visible on /_prord/cluster.
//
// The gray-failure resilience layer is on by default: a relative
// latency-outlier detector ejects backends that turn slow without
// failing (soft exclusion plus progressive session rebinding), and
// idempotent static requests still unanswered after the pooled-p95
// delay are hedged to a second backend with the first committed
// response winning. Tune with the -gray-*, -hedge* and -deadline
// flags or disable with -gray=false; counters are visible on
// /_prord/cluster under "gray".
//
// With -pool-initial the backend pool becomes elastic: the server
// starts with that many of the -backends servers in rotation and an
// organic controller (requires -overload) joins one — warm-preloading
// the rank table's top files — when the tier holds Saturated, and
// drains one when it holds Normal. Pool membership and lifecycle
// states are visible on /_prord/cluster under "pool".
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"slices"
	"time"

	"prord/internal/autoscale"
	"prord/internal/fleet"
	"prord/internal/health"
	"prord/internal/httpfront"
	"prord/internal/mining"
	"prord/internal/overload"
	"prord/internal/policy"
	"prord/internal/trace"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "front-end listen address")
		backends = flag.Int("backends", 4, "number of demo backend servers")
		polName  = flag.String("policy", "PRORD", "distribution policy (see prord-sim)")
		workload = flag.String("workload", "synthetic", "site/workload preset: cs, worldcup, synthetic")
		cacheMB  = flag.Int64("cache-mb", 4, "per-backend memory cache in MiB")
		missMs   = flag.Int("miss-ms", 10, "simulated disk latency per backend miss (ms)")
		seed     = flag.Int64("seed", 42, "site generation seed")
		model    = flag.String("model", "", "load a mined model (logmine -o) instead of mining at startup")
		refresh  = flag.Int("mining-refresh", 0, "batch online mining: fold navigation observations into a fresh decision snapshot every N observations (0: train in place per observation)")

		retries       = flag.Int("retries", 0, "failover retries per request (0: default of 1, negative disables)")
		probeInterval = flag.Duration("probe-interval", time.Second, "active health-probe interval for tripped backends (0 disables)")
		probeTimeout  = flag.Duration("probe-timeout", 0, "health-probe request timeout (0: default 1s)")
		breakThresh   = flag.Int("breaker-threshold", 0, "consecutive failures that trip a backend's breaker (0: default 3)")
		breakBackoff  = flag.Duration("breaker-backoff", 0, "initial breaker open time before a half-open trial (0: default 500ms)")
		breakMax      = flag.Duration("breaker-max-backoff", 0, "breaker backoff ceiling under repeated failed trials (0: default 30s)")

		grayOn   = flag.Bool("gray", true, "enable the gray-failure resilience layer: latency-outlier detector with slow-backend ejection and progressive session rebinding")
		hedge    = flag.Bool("hedge", true, "with -gray: hedge idempotent static requests after the pooled-p95 delay, first committed response wins (stands down at Saturated tier)")
		hedgeCap = flag.Int("hedge-cap", 0, "with -hedge: max outstanding hedged requests per backend (0: default 2)")
		deadline = flag.Duration("deadline", 0, "with -gray: per-request deadline budget at Normal tier; halves at Saturated, quarters at Critical (0 disables)")
		grayMult = flag.Float64("gray-multiplier", 0, "with -gray: relative outlier threshold k over the pool median (0: default 3)")
		grayHold = flag.Duration("gray-hold", 0, "with -gray: time over threshold before ejection (0: default 2s)")

		overloadOn = flag.Bool("overload", true, "enable the overload degrade ladder and admission control")
		capacity   = flag.Int("overload-capacity", 0, "in-flight capacity per backend before the cluster counts as saturated (0: default 64)")
		queueLimit = flag.Int("overload-queue", 0, "accept-queue slots at Critical tier (0: default 16, negative disables queuing)")
		minHold    = flag.Duration("overload-min-hold", 0, "minimum time at a tier before stepping back down (0: default 1s)")

		fleetReplicas = flag.Int("fleet-replicas", 0, "run this many front-end distributor replicas over the shared backend pool, with ring-partitioned session ownership and gossiped shared state; replica 0 listens on -addr, the rest on ephemeral localhost ports (0: single distributor, no fleet layer)")
		fleetGossip   = flag.Duration("fleet-gossip", 0, "with -fleet-replicas: gossip publish+merge period (0: default 250ms)")

		poolInitial  = flag.Int("pool-initial", 0, "enable the elastic backend pool starting at this many of the -backends servers (0 disables)")
		poolMin      = flag.Int("pool-min", 0, "elastic pool floor (0: default 1)")
		poolUpHold   = flag.Duration("pool-up-hold", 0, "sustained Saturated time before the controller joins a backend (0: default 2s)")
		poolDownHold = flag.Duration("pool-down-hold", 0, "sustained Normal time before the controller drains a backend (0: default 10s)")
		poolCooldown = flag.Duration("pool-cooldown", 0, "minimum spacing between scale decisions (0: default 5s)")
		warmTop      = flag.Int("pool-warm-top", 0, "rank-table files preloaded into a joining backend (0: default 32)")
		coldJoin     = flag.Bool("pool-cold-join", false, "skip the rank-table warm preload on joins")
		poolTick     = flag.Duration("pool-interval", 0, "autoscale housekeeping tick: controller, warm promotion, drain reaping (0: default 500ms)")
	)
	flag.Parse()
	requireLayer(*grayOn, "-gray", "hedge", "hedge-cap", "deadline", "gray-multiplier", "gray-hold")
	requireLayer(*hedge, "-hedge", "hedge-cap")
	requireLayer(*overloadOn, "-overload", "overload-capacity", "overload-queue", "overload-min-hold")
	requireLayer(*poolInitial > 0, "-pool-initial", "pool-min", "pool-up-hold", "pool-down-hold",
		"pool-cooldown", "pool-warm-top", "pool-cold-join", "pool-interval")
	requireLayer(*fleetReplicas > 0, "-fleet-replicas", "fleet-gossip")
	requireLayer(*probeInterval > 0, "-probe-interval", "probe-timeout")
	if *backends <= 0 {
		fail(fmt.Errorf("-backends must be positive, got %d", *backends))
	}
	if *cacheMB <= 0 {
		fail(fmt.Errorf("-cache-mb must be positive, got %d", *cacheMB))
	}
	if *missMs < 0 {
		fail(fmt.Errorf("-miss-ms must not be negative, got %d", *missMs))
	}
	if *fleetReplicas < 0 {
		fail(fmt.Errorf("-fleet-replicas must not be negative, got %d", *fleetReplicas))
	}
	if *fleetReplicas > 1 && *poolInitial > 0 {
		fail(fmt.Errorf("-fleet-replicas is incompatible with the elastic pool (each replica would resize the shared pool independently)"))
	}

	preset, err := presetByName(*workload)
	if err != nil {
		fail(err)
	}
	// Build the site, a training trace and the miner (or load a model
	// mined offline with logmine -o).
	site, tr, err := trace.GeneratePreset(preset, 0.1, *seed)
	if err != nil {
		fail(err)
	}
	// newMiner builds one replica's mined model (or loads the offline
	// one). In fleet mode every replica gets its own instance: online
	// mining mutates the model, and reconciliation is the gossip
	// layer's job, not shared memory's.
	newMiner := func() (*mining.Miner, error) {
		if *model != "" {
			f, err := os.Open(*model)
			if err != nil {
				return nil, err
			}
			defer f.Close()
			return mining.Load(f)
		}
		return mining.Mine(tr, mining.DefaultOptions()), nil
	}
	miner, err := newMiner()
	if err != nil {
		fail(err)
	}
	if *model != "" {
		fmt.Printf("loaded model from %s: %s\n", *model, miner.Summary())
	}
	files := site.FileTable()

	// Start the backend servers on ephemeral ports. Each backend exposes
	// its own counters on /_prord/stats next to the content it serves.
	var urls []*url.URL
	var demos []*httpfront.DemoBackend
	for i := 0; i < *backends; i++ {
		b := httpfront.NewDemoBackend(fmt.Sprintf("backend-%d", i), files,
			*cacheMB<<20, time.Duration(*missMs)*time.Millisecond)
		demos = append(demos, b)
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail(err)
		}
		bmux := http.NewServeMux()
		bmux.Handle("/_prord/stats", b.StatsHandler())
		bmux.Handle("/", b)
		srv := &http.Server{Handler: bmux}
		go func() {
			if err := srv.Serve(ln); err != http.ErrServerClosed {
				fail(err)
			}
		}()
		u, err := url.Parse("http://" + ln.Addr().String())
		if err != nil {
			fail(err)
		}
		urls = append(urls, u)
		fmt.Printf("backend-%d: %s\n", i, u)
	}

	var ovcfg *overload.Config
	if *overloadOn {
		ovcfg = &overload.Config{
			CapacityPerBackend: *capacity,
			QueueLimit:         *queueLimit,
			MinHold:            *minHold,
		}
	}
	var gcfg *httpfront.GrayConfig
	if *grayOn {
		gcfg = &httpfront.GrayConfig{
			Detector: health.DetectorConfig{Multiplier: *grayMult, Hold: *grayHold},
			Hedge:    *hedge,
			HedgeCap: *hedgeCap,
			Deadline: *deadline,
		}
	}
	var ascfg *autoscale.Config
	if *poolInitial > 0 {
		ascfg = &autoscale.Config{
			Initial:  *poolInitial,
			Min:      *poolMin,
			UpHold:   *poolUpHold,
			DownHold: *poolDownHold,
			Cooldown: *poolCooldown,
			WarmTop:  *warmTop,
			ColdJoin: *coldJoin,
		}
	}
	// Fleet mode boots k distributor replicas over the same backend
	// pool, sharing one ownership ring and gossip exchanger. Replica 0
	// answers on -addr; the rest get ephemeral localhost ports, each
	// with its own operations endpoints.
	replicas := *fleetReplicas
	var ring *fleet.Ring
	var ex *fleet.Exchanger
	if replicas > 0 {
		members := make([]int, replicas)
		for i := range members {
			members[i] = i
		}
		if ring, err = fleet.NewRing(members); err != nil {
			fail(err)
		}
		ex = fleet.NewExchanger()
	} else {
		replicas = 1
	}
	var dists []*httpfront.Distributor
	var polLabel string
	for i := 0; i < replicas; i++ {
		pol, err := policy.ByName(*polName, *backends, policy.Thresholds{})
		if err != nil {
			fail(err)
		}
		if i == 0 {
			polLabel = pol.Name()
		}
		m := miner
		if i > 0 {
			if m, err = newMiner(); err != nil {
				fail(err)
			}
		}
		cfg := httpfront.Config{
			Backends: urls,
			Policy:   pol,
			Miner:    m,
			Prefetch: *polName == "PRORD",
			Retries:  *retries,

			MiningRefreshEvery: *refresh,
			Health: health.Config{
				Threshold:  *breakThresh,
				Backoff:    *breakBackoff,
				MaxBackoff: *breakMax,
			},
			ProbeInterval: *probeInterval,
			ProbeTimeout:  *probeTimeout,
			ProbeSeed:     *seed,
			Overload:      ovcfg,
			Gray:          gcfg,
			Autoscale:     ascfg,
			ScaleInterval: *poolTick,
		}
		if ring != nil {
			cfg.Fleet = &httpfront.FleetConfig{
				ReplicaID:      i,
				Ring:           ring,
				Exchanger:      ex,
				GossipInterval: *fleetGossip,
			}
		}
		d, err := httpfront.New(cfg)
		if err != nil {
			fail(err)
		}
		defer d.Close()
		dists = append(dists, d)
	}
	if ring != nil {
		handlers := make([]http.Handler, len(dists))
		for i, d := range dists {
			handlers[i] = d
		}
		for _, d := range dists {
			d.SetPeers(handlers)
		}
	}
	dist := dists[0]
	for i := 1; i < len(dists); i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			fail(err)
		}
		rmux := http.NewServeMux()
		rmux.Handle("/_prord/stats", httpfront.StatsHandler(dists[i]))
		rmux.Handle("/_prord/cluster", httpfront.ClusterStatsHandler(dists[i], demos))
		rmux.Handle("/", dists[i])
		srv := &http.Server{Handler: rmux}
		go func() {
			if err := srv.Serve(ln); err != http.ErrServerClosed {
				fail(err)
			}
		}()
		fmt.Printf("fleet replica %d: http://%s\n", i, ln.Addr())
	}

	mux := http.NewServeMux()
	mux.Handle("/_prord/stats", httpfront.StatsHandler(dist))
	mux.Handle("/_prord/cluster", httpfront.ClusterStatsHandler(dist, demos))
	mux.Handle("/", dist)

	fmt.Printf("prord-server: %s policy, %d backends, site %s (%d files)\n",
		polLabel, *backends, *workload, len(files))
	fmt.Printf("front-end listening on %s — try a page like %s\n", *addr, examplePage(site))
	if err := http.ListenAndServe(*addr, mux); err != nil {
		fail(err)
	}
}

func presetByName(name string) (trace.Preset, error) {
	switch name {
	case "cs":
		return trace.PresetCS, nil
	case "worldcup":
		return trace.PresetWorldCup, nil
	case "synthetic":
		return trace.PresetSynthetic, nil
	default:
		return 0, fmt.Errorf("unknown workload %q", name)
	}
}

func examplePage(site *trace.Site) string {
	if len(site.Pages) > 0 {
		return site.Pages[0].Path
	}
	return "/"
}

// requireLayer rejects, as a usage error, any of flags set on the
// command line while the layer that enable turns on is off: the layer
// would silently ignore it. Explicit sets are checked, not values,
// because some of these flags (-hedge) default to true.
func requireLayer(on bool, enable string, flags ...string) {
	if on {
		return
	}
	flag.Visit(func(f *flag.Flag) {
		if slices.Contains(flags, f.Name) {
			fmt.Fprintf(os.Stderr, "prord-server: -%s has no effect without %s\n", f.Name, enable)
			os.Exit(2)
		}
	})
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "prord-server:", err)
	os.Exit(1)
}
