package main

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"prord/internal/randutil"
	"prord/internal/trace"
)

// workload is one traffic mix the benchmark runs. Every field is part of
// the config echo, so two results compare only when all of them match.
type workload struct {
	Name   string       `json:"name"`
	Preset trace.Preset `json:"-"`
	// PresetName is Preset's display name, echoed in results.
	PresetName string `json:"preset"`
	// Scale sizes the generated trace (trace.PresetConfigs); half of it
	// is the mined training prefix, the other half the replayed pool.
	Scale    float64 `json:"scale"`
	Backends int     `json:"backends"`
	CacheMiB int64   `json:"cache_mib"`
	MissMs   int     `json:"miss_ms"`
	// Core drives Distributor.Core() in-process instead of serving HTTP.
	Core bool `json:"core"`
	// Warmup runs the closed loop before the measured window opens, so
	// caches and the online navigation model reach steady state first.
	Warmup time.Duration `json:"warmup"`
}

// siteSeed fixes the generated site — the deployed content, identical
// for every seed — so --seed varies only the request trace. A site drawn
// per seed would move the working-set size, and with it the hit rate,
// from run to run.
const siteSeed = 42

// trainFraction is the share of the trace mined before serving; the rest
// is the replayed session pool.
const trainFraction = 0.5

// clients is the closed loop's connection count: at most nproc on the
// machines the benchmark targets, and both processes share those CPUs.
const clients = 2

var workloads = []workload{
	{
		// WorldCup-98-like: the 16 MiB site mostly fits four 4 MiB
		// caches (hit rate ~0.995) and misses cost nothing, so every
		// microsecond is the request path's CPU.
		Name: "hot", Preset: trace.PresetWorldCup, Scale: 0.25,
		Backends: 4, CacheMiB: 4, MissMs: 0, Warmup: 2 * time.Second,
	},
	{
		// CS-department-like, the paper's main trace: one 8 MiB cache
		// holds a quarter of the 31.8 MiB site and the four together
		// hold all of it, and a miss costs 8 ms of simulated disk, so
		// the hit rate that locality and prefetch buy sets the result.
		Name: "miss", Preset: trace.PresetCS, Scale: 6,
		Backends: 4, CacheMiB: 8, MissMs: 8, Warmup: 10 * time.Second,
	},
	{
		// hot's sessions replayed straight into the decision core, no
		// sockets: the core is ~2% of a live request's CPU, below any
		// live workload's noise.
		Name: "core", Preset: trace.PresetWorldCup, Scale: 0.25,
		Backends: 4, CacheMiB: 4, MissMs: 0, Core: true, Warmup: time.Second,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			w.PresetName = w.Preset.String()
			return w, nil
		}
	}
	names := make([]string, 0, len(workloads))
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	sort.Strings(names)
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// inputs are the generated site and trace for one workload and seed.
// The server process and the load generator build them independently;
// generation is deterministic, so both see the same files and sessions.
type inputs struct {
	files    map[string]int64
	siteMiB  float64
	train    *trace.Trace
	eval     *trace.Trace
	sessions []trace.SessionScript
}

func buildInputs(w workload, seed int64) (*inputs, error) {
	sc, tc, err := trace.PresetConfigs(w.Preset, w.Scale)
	if err != nil {
		return nil, err
	}
	site, err := trace.GenerateSite(sc, randutil.New(siteSeed))
	if err != nil {
		return nil, err
	}
	tr, err := trace.Generate(w.Preset.String(), site, tc, randutil.New(seed))
	if err != nil {
		return nil, err
	}
	train, eval := tr.Split(trainFraction)
	sessions := eval.SessionScripts()
	if len(sessions) == 0 {
		return nil, fmt.Errorf("workload %s seed %d: empty session pool", w.Name, seed)
	}
	return &inputs{
		files:    site.FileTable(),
		siteMiB:  float64(site.TotalBytes()) / (1 << 20),
		train:    train,
		eval:     eval,
		sessions: sessions,
	}, nil
}

// sessionPool hands out replayed sessions in trace order to the closed
// loop's clients. It never runs dry: past the end it cycles back to the
// first session and counts the wrap, which the result reports, so a
// faster program is never measured over a shorter window.
type sessionPool struct {
	sessions []trace.SessionScript
	next     atomic.Int64
}

// take returns the next session and its serial number, unique per run.
func (p *sessionPool) take() (trace.SessionScript, int64) {
	n := p.next.Add(1) - 1
	return p.sessions[n%int64(len(p.sessions))], n
}

// wraps reports how often the pool had cycled once serial n was taken.
func (p *sessionPool) wraps(n int64) int64 { return n / int64(len(p.sessions)) }
