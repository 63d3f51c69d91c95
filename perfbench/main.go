package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	if os.Getenv(roleEnv) == "server" {
		os.Exit(serveMain(os.Args[1:]))
	}
	os.Exit(benchMain(os.Args[1:], os.Stdout))
}

// echoConfig is everything that must match for two results to be
// compared: the machine, both processes' GOMAXPROCS, the toolchain, the
// workload and the distributor actually built.
type echoConfig struct {
	Workload          workload `json:"workload"`
	Seconds           int      `json:"seconds"`
	Traced            bool     `json:"traced"`
	Nproc             int      `json:"nproc"`
	GeneratorMaxProcs int      `json:"generator_gomaxprocs"`
	ServerMaxProcs    int      `json:"server_gomaxprocs"`
	CPU               string   `json:"cpu"`
	GoVersion         string   `json:"go_version"`
	ClientConns       int      `json:"client_connections"`
	Files             int      `json:"files"`
	SiteMiB           float64  `json:"site_mib"`
	TrainRequests     int      `json:"train_requests"`
	EvalRequests      int      `json:"eval_requests"`
	Distributor       distEcho `json:"distributor"`
}

// echoIdentity names what was measured without making results unlike:
// the seed and what it generated, and the source under test.
type echoIdentity struct {
	Seed     int64  `json:"seed"`
	Source   string `json:"source"`
	Sessions int    `json:"sessions"`
	Model    string `json:"model"`
}

type echo struct {
	Config   echoConfig   `json:"config"`
	Identity echoIdentity `json:"identity"`
}

// record is one run as saved under the output directory.
type record struct {
	Echo     echo     `json:"echo"`
	Result   result   `json:"result"`
	Problems []string `json:"problems,omitempty"`
}

func benchMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("prordbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: hot, miss, core, or all (every workload, untraced then traced)")
	seed := fs.Int64("seed", 1, "trace seed; the same seed replays the same sessions")
	seconds := fs.Int("seconds", 10, "length of the measured window")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from a traced run")
	compare := fs.Bool("compare", false, "compare two saved results named as arguments; refuses unlike configs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "prordbench: -compare needs two result files")
			return 2
		}
		return compareResults(fs.Arg(0), fs.Arg(1), stdout)
	}
	if *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintln(os.Stderr, "prordbench: -seconds must be at least 1 and -trace 0 or 1")
		return 2
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	dir := os.Getenv("PRORDBENCH_DIR")
	if dir == "" {
		dir = ".bench_build"
	}
	b := bench{seed: *seed, seconds: *seconds, dir: dir, out: stdout}
	var res result
	var err error
	if *name == "all" {
		res, err = b.all()
	} else {
		res, err = b.one(*name, *traceMode == 1, "")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "prordbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prordbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

type bench struct {
	seed    int64
	seconds int
	dir     string
	out     io.Writer
}

// one runs a workload, prints its metrics by name with their units and
// saves the run with its config echo. prefix names the metrics in the
// returned result.
func (b bench) one(name string, traced bool, prefix string) (result, error) {
	w, err := workloadByName(name)
	if err != nil {
		return result{}, err
	}
	source, err := sourceDigest(".")
	if err != nil {
		return result{}, err
	}
	r := &runner{w: w, seed: b.seed, window: time.Duration(b.seconds) * time.Second}
	if !w.Core {
		if r.in, err = buildInputs(w, b.seed); err != nil {
			return result{}, err
		}
	}
	var values map[string]float64
	var defs []metricDef
	var shown *phase
	if traced {
		defs = perLayer
		u, err := r.measureOnce(false)
		if err != nil {
			return result{}, err
		}
		t, err := r.measureOnce(true)
		if err != nil {
			return result{}, err
		}
		if values, err = perLayerMetrics(u, t); err != nil {
			return result{}, err
		}
		path, err := writeSpans(b.dir, name, link(t.spans))
		if err != nil {
			return result{}, err
		}
		fmt.Fprintf(b.out, "# spans of the traced window: %s\n", path)
		shown = t
	} else {
		defs = endToEnd
		p, setup, err := r.setupAndMeasure()
		if err != nil {
			return result{}, err
		}
		values = endToEndMetrics(p, setup)
		all := p.slots.All
		var cpu time.Duration
		for _, c := range p.slots.CPU {
			cpu += c
		}
		fmt.Fprintf(b.out, "# %d latency samples; whole window: %.6g req/s, p50 %.6g us, p99 %.6g us, cpu %.6g us/req\n",
			all.N, p.throughput(), float64(all.P50)/1e3, float64(all.P99)/1e3, float64(cpu.Microseconds())/float64(p.ok))
		fmt.Fprintf(b.out, "# per second: requests %v, p99 ns %v, server cpu %v\n", p.slots.OK, p.slots.P99, p.slots.CPU)
		fmt.Fprintf(b.out, "# server rss MB at each second: %.4g\n", p.rssSeries())
		shown = p
	}
	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: make(map[string]metric, len(defs))}
	for _, d := range defs {
		res.Metrics[prefix+d.Name] = metric{Value: values[d.Name], Unit: d.Unit}
		fmt.Fprintf(b.out, "%-40s %16.6g %s\n", prefix+d.Name, values[d.Name], d.Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintf(b.out, "# FAILED: %s\n", p)
	}
	rec := record{
		Echo: echo{
			Config: echoConfig{
				Workload: w, Seconds: b.seconds, Traced: traced,
				Nproc: runtime.NumCPU(), GeneratorMaxProcs: runtime.GOMAXPROCS(0),
				ServerMaxProcs: shown.ready.GOMAXPROCS, CPU: cpuModel(), GoVersion: runtime.Version(),
				ClientConns: clients, Files: shown.ready.Files, SiteMiB: shown.ready.SiteMiB,
				TrainRequests: shown.ready.TrainRequests, EvalRequests: shown.ready.EvalRequests,
				Distributor: shown.ready.Distributor,
			},
			Identity: echoIdentity{Seed: b.seed, Source: source, Sessions: shown.ready.Sessions, Model: shown.ready.Model},
		},
		Result:   res,
		Problems: r.problems,
	}
	path, err := saveRecord(b.dir, fmt.Sprintf("%s-seed%d-trace%t", name, b.seed, traced), rec)
	if err != nil {
		return result{}, err
	}
	cfg, err := json.Marshal(rec.Echo)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(b.out, "# config %s\n# saved %s\n", cfg, path)
	return res, nil
}

// all runs every workload untraced and then traced: one command for
// every metric.
func (b bench) all() (result, error) {
	total := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := b.one(w.Name, traced, w.Name+".")
			if err != nil {
				return result{}, err
			}
			total.Correct = total.Correct && res.Correct
			total.Attempted += res.Attempted
			total.Failed += res.Failed
			for k, v := range res.Metrics {
				total.Metrics[k] = v
			}
		}
	}
	return total, nil
}

func saveRecord(dir, name string, rec record) (string, error) {
	path := filepath.Join(dir, "results", name+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(b, '\n'), 0o644)
}

func loadRecord(path string) (record, error) {
	var rec record
	b, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(b, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

// configDiff lists the echo fields in which a and b differ.
func configDiff(a, b echoConfig) ([]string, error) {
	flat := func(c echoConfig) (map[string]string, error) {
		var m map[string]any
		raw, err := json.Marshal(c)
		if err != nil {
			return nil, err
		}
		if err := json.Unmarshal(raw, &m); err != nil {
			return nil, err
		}
		out := map[string]string{}
		for k, v := range m {
			s, err := json.Marshal(v)
			if err != nil {
				return nil, err
			}
			out[k] = string(s)
		}
		return out, nil
	}
	fa, err := flat(a)
	if err != nil {
		return nil, err
	}
	fb, err := flat(b)
	if err != nil {
		return nil, err
	}
	var diff []string
	for k, v := range fa {
		if fb[k] != v {
			diff = append(diff, fmt.Sprintf("%s: %s vs %s", k, v, fb[k]))
		}
	}
	sort.Strings(diff)
	return diff, nil
}

// compareResults prints b's metrics against a's, refusing when their
// config echoes differ.
func compareResults(pathA, pathB string, out io.Writer) int {
	a, errA := loadRecord(pathA)
	b, errB := loadRecord(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "prordbench:", err)
		return 2
	}
	diff, err := configDiff(a.Echo.Config, b.Echo.Config)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prordbench:", err)
		return 2
	}
	if len(diff) > 0 {
		fmt.Fprintln(os.Stderr, "prordbench: refusing to compare results with different configs:")
		for _, d := range diff {
			fmt.Fprintln(os.Stderr, "  "+d)
		}
		return 3
	}
	names := make([]string, 0, len(a.Result.Metrics))
	for k := range a.Result.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		ma, mb := a.Result.Metrics[k], b.Result.Metrics[k]
		fmt.Fprintf(out, "%-40s %14.6g %14.6g %+8.2f%% %s\n", k, ma.Value, mb.Value,
			100*ratio(mb.Value-ma.Value, ma.Value), ma.Unit)
	}
	return 0
}
