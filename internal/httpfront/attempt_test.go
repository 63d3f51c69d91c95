package httpfront

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"prord/internal/policy"
)

// step is one call an attempt's proxy makes on its writer.
type step struct {
	leg  int    // which attempt
	op   string // "head", "body", "flush", "cancel"
	code int
	body string
	hdr  map[string]string // set on the attempt's header before a head
}

// legs opens n attempt writers over rep, attempt i on backend i. In a
// race every leg is cancelable and a claim cancels the others, as in a
// hedged pair; otherwise only the last attempt is final, as in the
// failover loop.
func legs(rep *reply, n int, race bool) ([]*attempt, []context.CancelFunc) {
	as := make([]*attempt, n)
	cancels := make([]context.CancelFunc, n)
	for i := range as {
		ctx, cancel := context.WithCancel(context.Background())
		as[i], cancels[i] = rep.attempt(ctx, i, !race && i == n-1), cancel
		if race {
			i := i
			as[i].cancel = cancel
			as[i].onClaim = func() {
				for j, c := range cancels {
					if j != i {
						c()
					}
				}
			}
		}
	}
	return as, cancels
}

func (s step) apply(as []*attempt, cancels []context.CancelFunc) {
	a := as[s.leg]
	switch s.op {
	case "head":
		for k, v := range s.hdr {
			a.Header().Set(k, v)
		}
		a.WriteHeader(s.code)
	case "body":
		a.Write([]byte(s.body))
	case "flush":
		a.Flush()
	case "cancel":
		cancels[s.leg]()
	}
}

func TestAttemptWriter(t *testing.T) {
	cases := []struct {
		name    string
		n       int
		race    bool
		steps   []step
		release int // the attempt the caller releases if nothing committed
		want    []outcome
		code    int
		body    string
		backend string
	}{
		{
			name:  "first-try success",
			n:     2,
			steps: []step{{leg: 0, op: "head", code: 200}, {leg: 0, op: "body", body: "page"}},
			want:  []outcome{committed, pending}, code: 200, body: "page", backend: "0",
		},
		{
			name: "swallowed 5xx then success",
			n:    2,
			steps: []step{
				{leg: 0, op: "head", code: 503}, {leg: 0, op: "body", body: "down"},
				{leg: 1, op: "head", code: 200}, {leg: 1, op: "body", body: "page"},
			},
			want: []outcome{failed, committed}, code: 200, body: "page", backend: "1",
		},
		{
			name: "final 5xx streams the backend body",
			n:    2,
			steps: []step{
				{leg: 0, op: "head", code: 503}, {leg: 0, op: "body", body: "down"},
				{leg: 1, op: "head", code: 502}, {leg: 1, op: "body", body: "backend says no"},
			},
			want: []outcome{failed, failed}, code: 502, body: "backend says no", backend: "1",
		},
		{
			name: "every attempt failed",
			n:    2,
			race: true, // neither attempt is final: the caller releases
			steps: []step{
				{leg: 0, op: "head", code: 503, hdr: map[string]string{"Content-Length": "4"}},
				{leg: 0, op: "body", body: "down"},
				{leg: 1, op: "head", code: 500, hdr: map[string]string{"Content-Length": "3", "X-Why": "disk"}},
				{leg: 1, op: "body", body: "err"},
			},
			release: 1,
			want:    []outcome{failed, failed}, code: 500, body: "Internal Server Error\n", backend: "1",
		},
		{
			name: "backup claims while the primary discards",
			n:    2,
			race: true,
			steps: []step{
				{leg: 1, op: "head", code: 200}, {leg: 1, op: "body", body: "backup"},
				{leg: 0, op: "head", code: 200}, {leg: 0, op: "body", body: "primary"},
				{leg: 1, op: "body", body: "!"},
			},
			want: []outcome{lost, committed}, code: 200, body: "backup!", backend: "1",
		},
		{
			name:  "canceled leg's 5xx is abandoned",
			n:     1,
			race:  true,
			steps: []step{{leg: 0, op: "cancel"}, {leg: 0, op: "head", code: 502}},
			want:  []outcome{abandoned}, code: 502, body: "Bad Gateway\n", backend: "0",
		},
		{
			name: "leg canceled by the winner is lost, not failed",
			n:    2,
			race: true,
			steps: []step{
				{leg: 0, op: "head", code: 200}, {leg: 0, op: "body", body: "primary"},
				{leg: 1, op: "head", code: 502},
			},
			want: []outcome{committed, lost}, code: 200, body: "primary", backend: "0",
		},
		{
			name:  "flush before commit commits a 200",
			n:     1,
			steps: []step{{leg: 0, op: "flush"}, {leg: 0, op: "body", body: "chunk"}},
			want:  []outcome{committed}, code: 200, body: "chunk", backend: "0",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			rep := &reply{dst: rec}
			as, cancels := legs(rep, tc.n, tc.race)
			for _, s := range tc.steps {
				s.apply(as, cancels)
			}
			for i, a := range as {
				if tc.want[i] == pending {
					continue // never started
				}
				if got := a.outcome(); got != tc.want[i] {
					t.Errorf("attempt %d outcome = %d, want %d", i, got, tc.want[i])
				}
			}
			rep.release(as[tc.release])
			if rec.Code != tc.code || rec.Body.String() != tc.body {
				t.Fatalf("client got %d %q, want %d %q", rec.Code, rec.Body.String(), tc.code, tc.body)
			}
			if got := rep.status(); got != tc.code {
				t.Errorf("reply status = %d, want %d", got, tc.code)
			}
			if got := rec.Header().Get(BackendHeader); got != tc.backend {
				t.Errorf("%s = %q, want %q", BackendHeader, got, tc.backend)
			}
			if strings.HasSuffix(tc.body, "\n") && tc.code >= 500 {
				// The status-text reply: the failed body's length is stale.
				if cl := rec.Header().Get("Content-Length"); cl != "" {
					t.Errorf("status-text reply kept Content-Length %q", cl)
				}
				if ct := rec.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
					t.Errorf("status-text reply Content-Type = %q", ct)
				}
			}
			if tc.name == "flush before commit commits a 200" && !rec.Flushed {
				t.Error("Flush was not forwarded to the client writer")
			}
		})
	}
}

// headCounter is the client side of the fuzz target: it counts the
// status lines the client would see.
type headCounter struct {
	*httptest.ResponseRecorder
	heads int
}

func (h *headCounter) WriteHeader(code int) {
	h.heads++
	h.ResponseRecorder.WriteHeader(code)
}

// FuzzAttemptWriter drives up to three attempt writers over one reply
// with an arbitrary interleaving of heads, body writes, flushes and
// cancellations, then settles them as ServeHTTP does and checks the
// commit-once contract: the client sees exactly one status, a 5xx from
// a non-final attempt never reaches it, its body comes only from the
// owning attempt, and the status-text body appears only when no attempt
// committed.
func FuzzAttemptWriter(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x00, 0x01})
	f.Add([]byte{0x01, 0x00, 0x10, 0x05, 0x01, 0x01})
	f.Add([]byte{0x12, 0x03, 0x04, 0x20, 0x05, 0x0b})
	codes := []int{200, 204, 302, 404, 500, 502, 503, 103}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n, race := 1+int(data[0]%3), data[0]&0x10 != 0
		client := &headCounter{ResponseRecorder: httptest.NewRecorder()}
		rep := &reply{dst: client}
		as, cancels := legs(rep, n, race)
		wrote := make([]bool, n)
		for _, b := range data[1:] {
			i := int(b>>2) % n
			switch b & 3 {
			case 0:
				code := codes[int(b>>4)%len(codes)]
				as[i].WriteHeader(code)
				wrote[i] = wrote[i] || code >= http.StatusOK
			case 1:
				as[i].Write([]byte{'a' + byte(i)})
				wrote[i] = true
			case 2:
				as[i].Flush()
				wrote[i] = true
			case 3:
				cancels[i]()
			}
		}
		commits := 0
		for _, a := range as {
			if a.outcome() == committed {
				commits++
			}
		}
		if commits > 1 {
			t.Fatalf("%d attempts committed", commits)
		}
		ownerBefore := rep.owner.Load()
		released := as[n-1]
		if race {
			released = as[0]
		}
		rep.release(released)
		owner := rep.owner.Load()
		if owner == nil {
			t.Fatal("reply settled with no owner")
		}
		body, code := client.Body.String(), client.Code
		if ownerBefore == nil {
			// Nothing committed: the released attempt's status with the
			// minimal status-text body.
			if client.heads != 1 || owner != released || code != released.status ||
				body != http.StatusText(code)+"\n" {
				t.Fatalf("release: %d heads, %d %q; want %d status text", client.heads, code, body, released.status)
			}
			return
		}
		idx := owner.server
		switch {
		case client.heads == 0:
			// Only an attempt that wrote nothing may take the reply
			// silently (net/http then sends its implicit empty 200).
			if wrote[idx] || body != "" {
				t.Fatalf("attempt %d owns the reply but no head reached the client (body %q)", idx, body)
			}
		case client.heads > 1:
			t.Fatalf("client saw %d status lines", client.heads)
		}
		if code >= http.StatusInternalServerError && !owner.final {
			t.Fatalf("non-final attempt %d's %d reached the client", idx, code)
		}
		for _, c := range []byte(body) {
			if c != 'a'+byte(idx) {
				t.Fatalf("client body %q mixes in bytes not written by owner %d", body, idx)
			}
		}
	})
}

// failingBackend answers like a demo backend until failing is set; then
// it holds every demand request for 50ms and fails it with a 503 whose
// gzip head and body must never reach the client.
type failingBackend struct {
	inner   http.Handler
	failing atomic.Bool
	demand  atomic.Int64
}

func (f *failingBackend) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !f.failing.Load() || r.Header.Get(ProbeHeader) != "" || r.Header.Get(PrefetchHeader) != "" {
		f.inner.ServeHTTP(w, r)
		return
	}
	f.demand.Add(1)
	select {
	case <-time.After(50 * time.Millisecond):
	case <-r.Context().Done():
	}
	w.Header().Set("Content-Encoding", "gzip")
	w.WriteHeader(http.StatusServiceUnavailable)
	w.Write([]byte("\x1f\x8b"))
}

// TestHedgedFailureHonoursRetryBudget: when both legs of a hedged first
// try fail and retries are disabled, the request is not re-proxied, and
// the client gets one status-text 503 that carries no header of either
// failed leg.
func TestHedgedFailureHonoursRetryBudget(t *testing.T) {
	det := liveDetector()
	det.Hold = time.Hour // detection off: this test is about the retry budget
	cfg := Config{
		Policy:  policy.NewWRR(2),
		Retries: -1,
		Gray:    &GrayConfig{Detector: det, Hedge: true},
	}
	var bs []*failingBackend
	for i := 0; i < 2; i++ {
		b := &failingBackend{inner: NewDemoBackend("b"+strconv.Itoa(i), testFiles, 1<<20, 0)}
		bs = append(bs, b)
		srv := httptest.NewServer(b)
		t.Cleanup(srv.Close)
		u, err := url.Parse(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Backends = append(cfg.Backends, u)
	}
	d, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	front := httptest.NewServer(d)
	t.Cleanup(front.Close)
	// One fresh connection (session) per request spreads the warmup over
	// both backends until the hedge delay publishes.
	deadline := time.Now().Add(5 * time.Second)
	for d.detector.HedgeDelay() <= 0 {
		if time.Now().After(deadline) {
			t.Fatal("hedge delay not published after warmup")
		}
		c := &http.Client{}
		get(t, c, front.URL, "/a.gif")
		c.CloseIdleConnections()
	}
	fired0 := d.Gray().HedgesFired
	for _, b := range bs {
		b.failing.Store(true)
	}
	// An explicit Accept-Encoding turns transparent gunzip off in both
	// the client and the proxy, so a leaked Content-Encoding shows.
	req, err := http.NewRequest(http.MethodGet, front.URL+"/a.gif", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "gzip")
	c := &http.Client{}
	defer c.CloseIdleConnections()
	resp, err := c.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if d.Gray().HedgesFired != fired0+1 {
		t.Fatalf("hedges fired = %d, want %d: the test needs both legs to fail", d.Gray().HedgesFired, fired0+1)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || string(body) != "Service Unavailable\n" {
		t.Fatalf("client got %d %q, want one status-text 503", resp.StatusCode, body)
	}
	if ce := resp.Header.Get("Content-Encoding"); ce != "" {
		t.Fatalf("a failed leg's Content-Encoding %q reached the client", ce)
	}
	if resp.Header.Get(BackendHeader) == "" {
		t.Fatalf("no %s on the failure reply", BackendHeader)
	}
	if st := d.Stats(); st.Retries != 0 || st.Failovers != 0 {
		t.Fatalf("retries disabled, yet Retries=%d Failovers=%d", st.Retries, st.Failovers)
	}
	if n := bs[0].demand.Load() + bs[1].demand.Load(); n != 2 {
		t.Fatalf("backends saw %d failing attempts, want 2 (primary and backup only)", n)
	}
}
