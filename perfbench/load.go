package main

import (
	"bufio"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"prord/internal/httpfront"
	"prord/internal/trace"
)

// liveLoad is the closed loop against a live front end: clients
// connections, zero think time, each replayed session on a fresh
// keep-alive connection (the distributor keys sessions by RemoteAddr).
// Requests that start at or after from and end by until are measured.
type liveLoad struct {
	front  string
	in     *inputs
	pool   sessionPool
	traced bool

	reqID       atomic.Uint64
	from, until atomic.Int64
	stop        atomic.Bool
}

// slotOf returns the measured window's one-second slot a request ending
// at end falls in; the window's last instant belongs to the last slot.
func slotOf(from, end int64, slots int) int {
	return min(int((end-from)/int64(time.Second)), slots-1)
}

// clientTally is one client connection's measurements.
type clientTally struct {
	tally
	lat      [][]int64 // per one-second slot of the window
	hits     int64
	misses   int64
	pages    int64
	sessions int64
	spans    []span
}

// run drives one client until stop.
func (l *liveLoad) run(t *clientTally) {
	buf := make([]byte, 32<<10)
	var line []byte
	var br *bufio.Reader
	for !l.stop.Load() {
		script, _ := l.pool.take()
		if l.from.Load() != 0 && l.until.Load() == 0 {
			t.sessions++
		}
		conn, err := net.Dial("tcp", l.front)
		if err != nil {
			t.fail(fmt.Errorf("dial front end: %w", err), l.from.Load() != 0)
			// The run has failed; pause so a dead front end does not spin.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		if br == nil {
			br = bufio.NewReaderSize(conn, 32<<10)
		} else {
			br.Reset(conn)
		}
		for _, idx := range script.Reqs {
			if l.stop.Load() {
				break
			}
			req := &l.in.eval.Requests[idx]
			id := l.reqID.Add(1)
			line = appendRequest(line[:0], req.Path, id)
			t0 := time.Now()
			cache, err := exchange(conn, br, line, req, buf)
			t1 := time.Now()
			start, end := t0.UnixNano(), t1.UnixNano()
			f, u := l.from.Load(), l.until.Load()
			measured := f != 0 && start >= f && (u == 0 || end <= u)
			if err != nil {
				t.fail(err, measured)
				break // the connection's state is unknown
			}
			if !measured {
				continue
			}
			t.attempted++
			k := slotOf(f, end, len(t.lat))
			t.lat[k] = append(t.lat[k], end-start)
			switch cache {
			case "hit":
				t.hits++
			case "miss":
				t.misses++
			}
			if !req.Embedded {
				t.pages++
			}
			if l.traced {
				t.spans = append(t.spans, span{Kind: spClient, Start: start, End: end, Req: id})
			}
		}
		conn.Close()
	}
}

// exchangeTimeout bounds one request's round trip, so a hung response
// fails the run instead of hanging it.
const exchangeTimeout = 30 * time.Second

// exchange sends one request and checks its response, returning the
// backend's cache state header.
func exchange(conn net.Conn, br *bufio.Reader, line []byte, req *trace.Request, buf []byte) (string, error) {
	if err := conn.SetDeadline(time.Now().Add(exchangeTimeout)); err != nil {
		return "", err
	}
	if _, err := conn.Write(line); err != nil {
		return "", fmt.Errorf("GET %s: %w", req.Path, err)
	}
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		return "", fmt.Errorf("GET %s: %w", req.Path, err)
	}
	defer resp.Body.Close()
	if err := checkResponse(resp, req.Path, req.Size, buf); err != nil {
		return "", err
	}
	return resp.Header.Get(httpfront.CacheStateHeader), nil
}

func appendRequest(b []byte, path string, id uint64) []byte {
	b = append(b, "GET "...)
	b = append(b, path...)
	b = append(b, " HTTP/1.1\r\nHost: prord-bench\r\n"+reqHeader+": "...)
	b = strconv.AppendUint(b, id, 10)
	return append(b, "\r\n\r\n"...)
}

// liveWindow is what the generator measured over one window.
type liveWindow struct {
	window  time.Duration
	tallies []clientTally
	// serverCPU and clientCPU are the processes' CPU times at each slot
	// boundary, window start first.
	serverCPU []time.Duration
	clientCPU []time.Duration
	serverRSS []float64 // MB, at each slot boundary
	wraps     int64
	before    snapshot
	after     snapshot
}

// measureLive runs the closed loop for warmup, then measures one window
// of dur in one-second slots. It stops the clients before returning.
func measureLive(srv *server, in *inputs, traced bool, warmup, dur time.Duration) (liveWindow, error) {
	l := &liveLoad{front: srv.ready.Front, in: in, traced: traced}
	l.pool.sessions = in.sessions
	slots := int(dur / time.Second)
	res := liveWindow{tallies: make([]clientTally, clients)}
	var wg sync.WaitGroup
	for i := range res.tallies {
		t := &res.tallies[i]
		t.lat = make([][]int64, slots)
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.run(t)
		}()
	}
	stopped := false
	stopClients := func() {
		if !stopped {
			l.stop.Store(true)
			wg.Wait()
			stopped = true
		}
	}
	defer stopClients()

	time.Sleep(warmup)
	if err := getJSON(srv.ready.Ctl, "/snapshot", &res.before); err != nil {
		return res, err
	}
	read := func() error {
		s, err := procCPU(srv.pid())
		if err != nil {
			return err
		}
		c, err := procCPU("self")
		if err != nil {
			return err
		}
		m, err := procRSS(srv.pid())
		res.serverCPU, res.clientCPU, res.serverRSS = append(res.serverCPU, s), append(res.clientCPU, c), append(res.serverRSS, m)
		return err
	}
	wrap0 := l.pool.wraps(l.pool.next.Load())
	var err error
	if res.window, err = runWindow(slots, &l.from, &l.until, read); err != nil {
		return res, err
	}
	stopClients()
	res.wraps = l.pool.wraps(l.pool.next.Load()) - wrap0
	err = getJSON(srv.ready.Ctl, "/snapshot", &res.after)
	return res, err
}
