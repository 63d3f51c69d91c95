package main

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"prord/internal/dispatch"
	"prord/internal/randutil"
	"prord/internal/trace"
)

// coreCalls names the decision-core calls of one live request, in the
// order httpfront makes them.
var coreCalls = [...]string{"admit", "route", "done", "finish", "plan"}

// reservoirSize bounds the core workload's latency samples per worker
// and one-second slot. Past it the slot's samples are a uniform
// reservoir, so the server's memory does not grow with the core's speed.
const reservoirSize = 1 << 13

// sampleEvery is how often a traced core sequence records its per-call
// timings and spans: every one would hold millions of spans in memory.
const sampleEvery = 64

// callStats is one core call's timing over the sampled sequences.
type callStats struct {
	P50   int64   `json:"p50_ns"`
	P99   int64   `json:"p99_ns"`
	Share float64 `json:"share"`
}

// coreResult is one measured window of the core workload.
type coreResult struct {
	Window    time.Duration `json:"window"`
	Seqs      int64         `json:"seqs"`
	Attempted int64         `json:"attempted"`
	Failed    int64         `json:"failed"`
	// Outside counts failures outside the measured window; they fail the
	// run too.
	Outside   int64         `json:"outside_failures"`
	FirstErr  string        `json:"first_error,omitempty"`
	Sessions  int64         `json:"sessions"`
	PoolWraps int64         `json:"pool_wraps"`
	Slots     slotStats     `json:"slots"`
	RSS       []float64     `json:"rss"` // MB, at each slot boundary
	Calls     []callStats   `json:"calls,omitempty"`
	Before    snapshot      `json:"before"`
	After     snapshot      `json:"after"`
	Quiesce   quiesceReport `json:"quiesce"`
	Spans     []span        `json:"spans,omitempty"`
}

// coreWorker is one replaying goroutine's tallies.
type coreWorker struct {
	tally
	// lat and ok are per one-second slot of the window: the latency
	// reservoir and the sequences completed.
	lat      [][]int64
	ok       []int64
	rng      *randutil.Source
	seqs     int64
	sessions int64
	calls    [len(coreCalls)][]int64
	callNs   [len(coreCalls)]int64
	seqNs    int64
	spans    []span
}

// keep adds one latency sample to slot k's reservoir.
func (cw *coreWorker) keep(k int, ns int64) {
	cw.ok[k]++
	if len(cw.lat[k]) < reservoirSize {
		cw.lat[k] = append(cw.lat[k], ns)
		return
	}
	if j := cw.rng.Int63() % cw.ok[k]; j < reservoirSize {
		cw.lat[k][j] = ns
	}
}

// handleCore runs the core workload: hot's sessions replayed straight
// into Distributor.Core() from the closed loop's client count of
// goroutines, one full decision-core sequence per request.
func (s *sut) handleCore(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	warmup, err1 := time.ParseDuration(q.Get("warmup"))
	dur, err2 := time.ParseDuration(q.Get("window"))
	if err1 != nil || err2 != nil || dur <= 0 {
		http.Error(w, "core: need warmup and window durations", http.StatusBadRequest)
		return
	}
	res, err := s.runCore(warmup, dur)
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, res)
}

func (s *sut) runCore(warmup, dur time.Duration) (coreResult, error) {
	pool := &sessionPool{sessions: s.in.sessions}
	slots := int(dur / time.Second)
	var from, until atomic.Int64
	var stop atomic.Bool
	workers := make([]coreWorker, clients)
	var wg sync.WaitGroup
	for i := range workers {
		cw := &workers[i]
		cw.lat, cw.ok = make([][]int64, slots), make([]int64, slots)
		for k := range cw.lat {
			cw.lat[k] = make([]int64, 0, reservoirSize)
		}
		cw.rng = randutil.New(int64(i) + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.coreClient(i, cw, pool, &from, &until, &stop)
		}()
	}
	stopped := false
	stopWorkers := func() {
		if !stopped {
			stop.Store(true)
			wg.Wait()
			stopped = true
		}
	}
	defer stopWorkers()
	time.Sleep(warmup)
	res := coreResult{Before: s.snapshot()}
	var cpu []time.Duration
	read := func() error {
		c, err := procCPU("self")
		if err != nil {
			return err
		}
		m, err := procRSS("self")
		cpu, res.RSS = append(cpu, c), append(res.RSS, m)
		return err
	}
	wrap0 := pool.wraps(pool.next.Load())
	var err error
	if res.Window, err = runWindow(slots, &from, &until, read); err != nil {
		return res, err
	}
	stopWorkers()
	res.PoolWraps = pool.wraps(pool.next.Load()) - wrap0
	res.After = s.snapshot()
	res.Quiesce = s.quiesce()

	lat := make([][]int64, slots)
	ok := make([]int64, slots)
	var callNs [len(coreCalls)]int64
	var seqNs int64
	for i := range workers {
		cw := &workers[i]
		res.Seqs += cw.seqs
		res.Attempted += cw.attempted
		res.Failed += cw.failed
		res.Outside += cw.outside
		res.Sessions += cw.sessions
		if cw.err != nil && res.FirstErr == "" {
			res.FirstErr = cw.err.Error()
		}
		for k := range lat {
			lat[k] = append(lat[k], cw.lat[k]...)
			ok[k] += cw.ok[k]
		}
		seqNs += cw.seqNs
		for c := range coreCalls {
			callNs[c] += cw.callNs[c]
		}
		res.Spans = append(res.Spans, cw.spans...)
	}
	if res.Slots, err = newSlotStats("core sequences", lat, ok, cpu); err != nil {
		return res, err
	}
	if s.traced {
		res.Spans = append(res.Spans, s.log.take()...)
		for c, name := range coreCalls {
			var samples []int64
			for i := range workers {
				samples = append(samples, workers[i].calls[c]...)
			}
			l, err := summarize("dispatch."+name, samples)
			if err != nil {
				return res, err
			}
			res.Calls = append(res.Calls, callStats{P50: l.P50, P99: l.P99, Share: ratio(float64(callNs[c]), float64(seqNs))})
		}
	}
	return res, nil
}

// coreClient replays sessions until stop: Admit → Route → Done →
// FinishRequest → PlanProactive (pages only) per request, CloseConn at
// session end. Sequences that start at or after from and end by until
// are measured.
func (s *sut) coreClient(id int, cw *coreWorker, pool *sessionPool, from, until *atomic.Int64, stop *atomic.Bool) {
	core := s.dist.Core()
	grant := func() {}
	var n int64
	for !stop.Load() {
		script, serial := pool.take()
		key := "core-" + strconv.FormatInt(serial, 10)
		if from.Load() != 0 && until.Load() == 0 {
			cw.sessions++
		}
		for _, idx := range script.Reqs {
			if stop.Load() {
				break
			}
			path := s.in.eval.Requests[idx].Path
			n++
			sampled := s.traced && n%sampleEvery == 0
			if sampled {
				s.pol.sampling.Add(1)
			}
			var ts [len(coreCalls) + 1]time.Time
			var err error
			ts[0] = time.Now()
			if v, _ := core.Admit(key, path, ts[0], grant); v != dispatch.Admitted {
				err = fmt.Errorf("core: %s %s: admission verdict %v", key, path, v)
			}
			var out dispatch.Outcome
			if err == nil {
				if s.traced {
					ts[1] = time.Now()
				}
				out = core.Route(key, path, 0, ts[0])
				if !out.OK {
					core.GateLeave()
					err = fmt.Errorf("core: %s %s: no backend available", key, path)
				}
			}
			if err == nil {
				if s.traced {
					ts[2] = time.Now()
				}
				core.Done(key, out.Server, path, false, false)
				ts[3] = time.Now()
				core.FinishRequest(ts[3], ts[3].Sub(ts[0]))
				if s.traced {
					ts[4] = time.Now()
				}
				if !trace.IsEmbeddedPath(path) {
					core.PlanProactive(key, out.Server, path, ts[3])
				}
			}
			ts[5] = time.Now()
			if sampled {
				s.pol.sampling.Add(-1)
			}
			start, end := ts[0].UnixNano(), ts[5].UnixNano()
			f, u := from.Load(), until.Load()
			measured := f != 0 && start >= f && (u == 0 || end <= u)
			if err != nil {
				cw.fail(err, measured)
				continue
			}
			if !measured {
				continue
			}
			cw.attempted++
			cw.seqs++
			cw.keep(slotOf(f, end, len(cw.lat)), end-start)
			if sampled {
				cw.record(id, n, out.Conn, ts)
			}
		}
		core.CloseConn(key)
	}
}

// record keeps one sampled sequence's per-call timings and spans.
func (cw *coreWorker) record(worker int, n int64, conn int, ts [len(coreCalls) + 1]time.Time) {
	seq := uint64(worker)<<48 | uint64(n)
	cw.spans = append(cw.spans, span{Kind: spSeq, Start: ts[0].UnixNano(), End: ts[5].UnixNano(), Req: seq})
	cw.seqNs += int64(ts[5].Sub(ts[0]))
	for c := range coreCalls {
		d := int64(ts[c+1].Sub(ts[c]))
		cw.calls[c] = append(cw.calls[c], d)
		cw.callNs[c] += d
		cw.spans = append(cw.spans, span{Kind: spAdmit + uint8(c), Start: ts[c].UnixNano(),
			End: ts[c+1].UnixNano(), Req: seq, Conn: int64(conn)})
	}
}
