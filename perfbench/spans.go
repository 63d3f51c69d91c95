package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Span kinds. The live tree is client.request → httpfront.serve →
// backend.serve (two backend children when a request was hedged or
// retried); the core tree is core.seq → dispatch.<call> → policy.route.
const (
	spClient uint8 = iota
	spFront
	spBackend
	spSeq
	spAdmit
	spRoute
	spDone
	spFinish
	spPlan
	spPolicy
)

var spanNames = [...]string{
	spClient:  "client.request",
	spFront:   "httpfront.serve",
	spBackend: "backend.serve",
	spSeq:     "core.seq",
	spAdmit:   "dispatch.admit",
	spRoute:   "dispatch.route",
	spDone:    "dispatch.done",
	spFinish:  "dispatch.finish",
	spPlan:    "dispatch.plan",
	spPolicy:  "policy.route",
}

// parentKind is the kind one level up each non-root kind's tree.
var parentKind = map[uint8]uint8{
	spFront: spClient, spBackend: spFront,
	spAdmit: spSeq, spRoute: spSeq, spDone: spSeq, spFinish: spSeq, spPlan: spSeq,
	spPolicy: spRoute,
}

// span is one timed call, as recorded. Times are Unix nanoseconds, so
// spans from the server process and the generator share one clock.
type span struct {
	Kind  uint8  `json:"k"`
	Start int64  `json:"s"`
	End   int64  `json:"e"`
	Req   uint64 `json:"r"` // request id (live) or sequence id (core)
	// Conn links a policy.route span to the dispatch.route span of the
	// same core connection that contains it; backend index on
	// backend.serve spans.
	Conn int64 `json:"c"`
}

func (s span) interval() interval { return interval{s.Start, s.End} }

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) {
	l.mu.Lock()
	l.spans = append(l.spans, s)
	l.mu.Unlock()
}

func (l *spanLog) take() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := l.spans
	l.spans = nil
	return out
}

// linkedSpan is a span placed in its tree, as written to the spans file.
type linkedSpan struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Req    uint64 `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	kind   uint8
}

// link places spans in their trees. A span's parent is the span of its
// parent kind with the same request id, except policy.route, whose
// parent is the dispatch.route span of the same connection containing
// it. Spans without a parent in the set are dropped: server spans of
// requests outside the measured window, and policy calls made by a core
// sequence that was not sampled.
func link(spans []span) []linkedSpan {
	sort.SliceStable(spans, func(i, j int) bool {
		if di, dj := depth(spans[i].Kind), depth(spans[j].Kind); di != dj {
			return di < dj
		}
		return spans[i].Start < spans[j].Start
	})
	type key struct {
		kind uint8
		req  uint64
	}
	type routeRef struct {
		iv interval
		id int
	}
	ids := make(map[key]int)
	routes := make(map[int64][]routeRef)
	out := make([]linkedSpan, 0, len(spans))
	for _, s := range spans {
		parent := 0
		if pk, ok := parentKind[s.Kind]; ok {
			if s.Kind == spPolicy {
				for _, r := range routes[s.Conn] {
					if r.iv.start <= s.Start && s.End <= r.iv.end {
						parent = r.id
						break
					}
				}
			} else {
				parent = ids[key{pk, s.Req}]
			}
			if parent == 0 {
				continue
			}
		}
		id := len(out) + 1
		out = append(out, linkedSpan{ID: id, Parent: parent, Name: spanNames[s.Kind],
			Req: s.Req, Start: s.Start, End: s.End, kind: s.Kind})
		ids[key{s.Kind, s.Req}] = id
		if s.Kind == spRoute {
			routes[s.Conn] = append(routes[s.Conn], routeRef{s.interval(), id})
		}
	}
	return out
}

func depth(k uint8) int {
	d := 0
	for {
		pk, ok := parentKind[k]
		if !ok {
			return d
		}
		k, d = pk, d+1
	}
}

// frontLayer is what the live span tree says about the front end: the
// httpfront.serve durations, their self time (the part no backend.serve
// child covers) and the backends' own serve time.
type frontLayer struct {
	serve            latency
	selfNsPerReq     float64
	backendServeNsMn float64
}

func frontSpans(ls []linkedSpan) (frontLayer, error) {
	children := make(map[int][]interval)
	var backendNs, backends float64
	for _, s := range ls {
		if s.kind == spBackend {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
			backendNs += float64(s.End - s.Start)
			backends++
		}
	}
	var durs []int64
	var self float64
	for _, s := range ls {
		if s.kind == spFront {
			iv := interval{s.Start, s.End}
			durs = append(durs, s.End-s.Start)
			self += float64(selfTime(iv, children[s.ID]))
		}
	}
	serve, err := summarize("httpfront.serve spans", durs)
	if err != nil {
		return frontLayer{}, err
	}
	return frontLayer{serve: serve, selfNsPerReq: self / float64(len(durs)),
		backendServeNsMn: ratio(backendNs, backends)}, nil
}

// writeSpans writes linked spans as JSON lines to dir/spans/<name>.jsonl.
func writeSpans(dir, name string, ls []linkedSpan) (string, error) {
	path := filepath.Join(dir, "spans", name+".jsonl")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return "", err
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range ls {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, nil
}
