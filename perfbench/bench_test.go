package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

func TestMain(m *testing.M) {
	// The smoke tests start this test binary as the server process.
	if os.Getenv(roleEnv) == "server" {
		os.Exit(serveMain(os.Args[1:]))
	}
	os.Exit(m.Run())
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	sorted := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i + 1)
		}
		return s
	}
	// 1000 samples: p99 is the 990th, and exactly 10 lie beyond it.
	if v, ok := percentile(sorted(1000), 0.99); !ok || v != 990 {
		t.Errorf("p99 of 1..1000 = %d, %v; want 990, true", v, ok)
	}
	// 999 samples: p99 is the 990th again, with only 9 beyond.
	if _, ok := percentile(sorted(999), 0.99); ok {
		t.Error("p99 of 999 samples reported with 9 beyond it")
	}
	if v, ok := percentile(sorted(21), 0.5); !ok || v != 11 {
		t.Errorf("p50 of 1..21 = %d, %v; want 11, true", v, ok)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestSelfTimeOverlappingHedgeChildren(t *testing.T) {
	parent := interval{0, 100}
	// A primary leg 10-60 and a hedged backup 40-90 overlap by 20:
	// together they cover 10-90, leaving 20 of self time.
	hedged := []interval{{10, 60}, {40, 90}}
	if got := selfTime(parent, hedged); got != 20 {
		t.Errorf("self time with overlapping hedge legs = %d, want 20", got)
	}
	// A child running past the parent's end is clipped.
	if got := selfTime(parent, []interval{{90, 150}}); got != 90 {
		t.Errorf("self time with an overrunning child = %d, want 90", got)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestLinkBuildsBothTrees(t *testing.T) {
	spans := []span{
		{Kind: spBackend, Start: 20, End: 50, Req: 7},
		{Kind: spBackend, Start: 30, End: 60, Req: 7},
		{Kind: spFront, Start: 10, End: 70, Req: 7},
		{Kind: spClient, Start: 0, End: 80, Req: 7},
		{Kind: spFront, Start: 10, End: 20, Req: 8}, // warm-up request: no client span
		{Kind: spSeq, Start: 0, End: 100, Req: 1},
		{Kind: spRoute, Start: 10, End: 40, Req: 1, Conn: 3},
		{Kind: spPolicy, Start: 20, End: 30, Conn: 3},
		{Kind: spPolicy, Start: 20, End: 30, Conn: 4}, // another connection's call
	}
	ls := link(spans)
	parents := map[string]string{}
	byID := map[int]linkedSpan{}
	for _, s := range ls {
		byID[s.ID] = s
	}
	for _, s := range ls {
		parents[s.Name] += byID[s.Parent].Name + ";"
	}
	want := map[string]string{
		"client.request":  ";",
		"httpfront.serve": "client.request;",
		"backend.serve":   "httpfront.serve;httpfront.serve;",
		"core.seq":        ";",
		"dispatch.route":  "core.seq;",
		"policy.route":    "dispatch.route;",
	}
	for name, p := range want {
		if parents[name] != p {
			t.Errorf("%s parents = %q, want %q", name, parents[name], p)
		}
	}
	if len(ls) != 7 {
		t.Errorf("linked %d spans, want 7 (orphans dropped)", len(ls))
	}
	front, err := frontSpans(append(ls, manyFronts(2000)...))
	if err != nil {
		t.Fatal(err)
	}
	if front.backendServeNsMn != 30 {
		t.Errorf("backend serve mean = %v, want 30", front.backendServeNsMn)
	}
}

// manyFronts returns childless front spans, enough for a p99.
func manyFronts(n int) []linkedSpan {
	out := make([]linkedSpan, n)
	for i := range out {
		out[i] = linkedSpan{ID: 1000 + i, Name: "httpfront.serve", Start: 0, End: 100, kind: spFront}
	}
	return out
}

func demoBody(path string, size int) []byte {
	return bytes.Repeat([]byte("<!-- "+path+" -->\n"), size)[:size]
}

func TestCheckBody(t *testing.T) {
	const path, size = "/g1/p7.html", 1000
	body := demoBody(path, size)
	buf := make([]byte, 64) // smaller than the body: the check spans reads
	if err := checkBody(bytes.NewReader(body), path, size, buf); err != nil {
		t.Fatalf("exact demo body rejected: %v", err)
	}
	if err := checkBody(bytes.NewReader(body[:size-1]), path, size, buf); err == nil ||
		!strings.Contains(err.Error(), "cut at byte 999") {
		t.Errorf("truncated body: err = %v, want a cut-at-999 error", err)
	}
	long := append(append([]byte{}, body...), '!')
	if err := checkBody(bytes.NewReader(long), path, size, buf); err == nil {
		t.Error("over-long body accepted")
	}
	bad := append([]byte{}, body...)
	bad[500] ^= 1
	if err := checkBody(bytes.NewReader(bad), path, size, buf); err == nil {
		t.Error("corrupted body accepted")
	}
	if err := checkBody(bytes.NewReader(demoBody("/other.html", size)), path, size, buf); err == nil {
		t.Error("another file's body accepted")
	}
}

func TestSlotsMergeThinSeconds(t *testing.T) {
	second := func(n int) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = int64(i)
		}
		return s
	}
	cpu := []time.Duration{0, 1, 2, 3, 4, 5}
	// Five seconds of 1000 samples each: five one-second slots.
	st, err := newSlotStats("full", [][]int64{second(1000), second(1000), second(1000), second(1000), second(1000)},
		[]int64{1000, 1000, 1000, 1000, 1000}, cpu)
	if err != nil || len(st.Secs) != 5 {
		t.Fatalf("full seconds: %v slots, err %v", st.Secs, err)
	}
	// A thin first second merges the slots pairwise; the last slot
	// takes the odd second.
	st, err = newSlotStats("thin", [][]int64{second(300), second(800), second(700), second(600), second(500)},
		[]int64{300, 800, 700, 600, 500}, cpu)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(st.Secs, st.OK, st.CPU) != "[2 3] [1100 1800] [2ns 3ns]" {
		t.Errorf("thin seconds: slots %v, counts %v, cpu %v", st.Secs, st.OK, st.CPU)
	}
	if st.All.N != 2900 {
		t.Errorf("whole window holds %d samples, want 2900", st.All.N)
	}
}

func TestCompareRefusesUnlikeConfigs(t *testing.T) {
	a := echoConfig{Nproc: 2, GeneratorMaxProcs: 2, ServerMaxProcs: 2, CPU: "x"}
	b := a
	if d, err := configDiff(a, b); err != nil || len(d) != 0 {
		t.Fatalf("identical configs differ: %v %v", d, err)
	}
	b.ServerMaxProcs = 1
	d, err := configDiff(a, b)
	if err != nil || len(d) != 1 || !strings.HasPrefix(d[0], "server_gomaxprocs: 2 vs 1") {
		t.Errorf("GOMAXPROCS mismatch reported as %v, %v", d, err)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric tables in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for i, w := range workloads {
		if i >= len(names) || names[i] != w.Name {
			t.Errorf("BENCHMARK.json workloads %v, want %s at %d", names, w.Name, i)
		}
	}
	check := func(what string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the benchmark", what, len(got), len(want))
			return
		}
		for i := range want {
			if g := got[i]; g.Name != want[i].Name || g.Unit != want[i].Unit || g.Better != want[i].Better {
				t.Errorf("%s[%d] = %+v, want %+v", what, i, g, want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestSmoke runs every workload untraced and traced for a two-second
// window and requires a correct result with every metric present.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take about a minute")
	}
	t.Setenv("PRORDBENCH_DIR", t.TempDir())
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			var out bytes.Buffer
			code := benchMain([]string{"--workload", w.Name, "--seed", "7", "--seconds", "2", "--trace", trace}, &out)
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res result
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace %s: exit %d, last line not a result: %v\n%s", w.Name, trace, code, err, out.String())
			}
			defs := endToEnd
			if trace == "1" {
				defs = perLayer
			}
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 || len(res.Metrics) != len(defs) {
				t.Errorf("%s trace %s: exit %d, result %+v\n%s", w.Name, trace, code, res, out.String())
			}
			if trace == "0" && res.Metrics["throughput_rps"].Value <= 0 {
				t.Errorf("%s: throughput %v", w.Name, res.Metrics["throughput_rps"])
			}
		}
	}
}
