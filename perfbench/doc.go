// Command prordbench is the repository's benchmark: it drives the live
// PRORD HTTP distributor as prord-server deploys it by default and
// reports end-to-end and per-layer metrics, every layer timed from
// outside the program.
//
// Run it from the repository root through the wrapper, which builds it
// under .bench_build/:
//
//	python3 perfbench/run.py --workload hot --seed 1 --seconds 10 --trace 0
//	python3 perfbench/run.py --workload all        # every workload, both modes
//	python3 perfbench/run.py --compare A.json B.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it print each
// metric by name with its unit. Each run is saved with its config echo
// under .bench_build/results/, and -compare refuses two results whose
// echoes differ in anything but seed and source (nproc, both processes'
// GOMAXPROCS, CPU model, Go version, workload, distributor config).
//
// # Processes and load
//
// The system under test is this binary restarted in its server role: the
// demo backends and the distributor in one process, as prord-server runs
// them, so its CPU, memory and GC are its own. The generator process
// runs with GOMAXPROCS equal to nproc and a closed loop of two clients
// with zero think time; each replayed session runs on a fresh keep-alive
// connection, because the distributor keys sessions by RemoteAddr. Half
// of the generated trace is mined at start-up and the other half is the
// replayed session pool, which cycles when exhausted (client.pool_wraps
// counts the cycles; the trace sizes avoid them on hot and miss today).
// The site is generated from a fixed seed; --seed varies the trace.
//
// # Workloads
//
//   - hot: WorldCup-98-like, 4 backends with 4 MiB caches, 0 ms misses.
//     Misses are free, so the request path's CPU sets the result.
//   - miss: CS-department-like, 4 backends with 8 MiB caches, 8 ms per
//     miss. The hit rate sets the result; the CPU path is ~2% of it.
//   - core: hot's sessions driven into Distributor.Core() from two
//     goroutines without sockets. A request is one Admit → Route → Done
//     → FinishRequest → PlanProactive (pages only) sequence, with
//     CloseConn at session end. Its latency samples are a uniform
//     reservoir of 2^13 per goroutine and second, so the server's
//     memory does not grow with the core's speed.
//
// # Correctness
//
// A run fails (correct false, exit 1) when any request fails: a
// transport error, a non-200 status, a shed response, or a body whose
// Content-Length or bytes differ from the demo backend's content for the
// file table. It also fails when, after the load stops, the core does
// not return to zero Loads(), zero InFlightFiles() and a clean
// SessionCheck(), or when the measured window came out short.
//
// # Metrics
//
// End-to-end metrics come from untraced runs. The measured window is cut
// into one-second slots (merged into longer ones where a second holds
// fewer than 1000 samples), and throughput_rps, latency_p50_us,
// latency_p99_us and server_cpu_us_per_req (from /proc/<pid>/stat) are
// medians over the slots, so a second of interference from outside the
// benchmark moves one slot rather than the run. Each slot's percentiles
// are exact, reported only with at least 10 samples beyond them; the
// sample count is printed with the whole window's values.
//
// server_rss_mb is the median of the server's VmRSS read at the second
// boundaries: its memory while serving. Its peak (VmHWM) is set by the
// start-up's garbage and the GC's timing, and swung from 59 to 72 MB
// between runs of one seed on miss. setup_s is the server's
// start-to-READY time, the median of five starts.
//
// The failure ratio is the result's failed/attempted and the per-layer
// failed_ratio. It is 0 when the run is correct, so it cannot be an
// end-to-end metric with a bound relative to its median.
//
// A traced run measures one untraced and one traced window, each on a
// fresh server, and reports per-layer metrics from the traced one;
// bench.tracing_overhead is traced over untraced throughput. The traced
// server wraps Distributor.ServeHTTP (httpfront.serve spans),
// DemoBackend.ServeHTTP (backend.serve spans, hint precision), the
// policy (a decorator on Config.Policy forwarding ConnClose) and its
// listeners (accept counts). The generator's X-Bench-Req header links
// client.request → httpfront.serve → backend.serve across processes;
// on core the tree is core.seq → dispatch.<call> → policy.route, for
// every 64th sequence. Spans are written to .bench_build/spans/.
//
// Each per-layer metric, and the end-to-end metric and workload it
// should move (0 where the workload does not reach the layer):
//
//	httpfront.serve_p50_us, serve_p99_us, self_us_per_req
//	    throughput_rps, server_cpu_us_per_req, latency_p50_us on hot; none on miss
//	httpfront.backend_conns_per_req, front_conns_per_session (1.0), backend_reqs_per_demand
//	    throughput_rps, server_cpu_us_per_req on hot
//	httpfront.hints_per_page, hints_dropped
//	    cost: server_cpu_us_per_req on hot; benefit: throughput_rps on miss
//	health.hedges_per_req, hedge_win_ratio, breaker_trips (0)
//	    latency_p99_us on miss; cost: server_cpu_us_per_req on hot
//	dispatch.dispatch_per_req (Fig. 6), switches_per_req, prefetch_per_req
//	    throughput_rps on miss
//	dispatch.<call>_ns_p50, _ns_p99, _share for admit, route, done, finish, plan
//	    throughput_rps, latency_p99_us on core
//	policy.route_ns_mean, calls_per_req
//	    throughput_rps on core
//	overload.tier_transitions (0: two connections never reach the gate)
//	    none
//	cache.hit_rate, backend_load_skew, backend_serve_us_mean, prefetch_precision
//	    throughput_rps, latency_p50_us, latency_p99_us on miss
//	trace.generate_s, mining.mine_s
//	    setup_s on every workload
//	client.cpu_us_per_req, sessions_started, latency_samples, pool_wraps,
//	failed_ratio, bench.tracing_overhead
//	    validity of the run only
package main
