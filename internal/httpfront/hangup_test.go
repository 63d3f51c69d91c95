package httpfront

import (
	"context"
	"net/http"
	"testing"
	"time"

	"prord/internal/health"
	"prord/internal/policy"
)

// TestClientHangUpIsNotABackendFailure: a client that cancels before a
// healthy (merely slow) backend answers must not be booked as a backend
// failure. Each hang-up surfaces inside ReverseProxy as a 502; counting
// it would feed the breakers, drop locality claims and retry the
// request for a client that is gone — three hang-ups would open both
// breakers of this cluster with Retries=3 and Errors=6.
func TestClientHangUpIsNotABackendFailure(t *testing.T) {
	done := make(chan Observation, 3)
	d, front, slows := grayCluster(t, 2, Config{
		Retries: 1,
		Health:  health.Config{Threshold: 3, Backoff: time.Hour},
		Observe: func(o Observation) { done <- o },
	})
	for _, s := range slows {
		s.delay.Store(int64(200 * time.Millisecond))
	}
	hangUp(t, front.URL, done, 3)
	for _, h := range d.Health() {
		if h.State != "closed" || h.Failures != 0 {
			t.Fatalf("a client hang-up was blamed on backend %d: %+v", h.Backend, h)
		}
	}
	if st := d.Stats(); st.Retries != 0 || st.Errors != 0 || st.Failovers != 0 {
		t.Fatalf("hang-ups were retried or counted as errors: Retries=%d Errors=%d Failovers=%d",
			st.Retries, st.Errors, st.Failovers)
	}
	for i := range slows {
		if n := d.Core().Loads()[i]; n != 0 {
			t.Fatalf("backend %d still carries %d bookings after the hang-ups", i, n)
		}
	}
}

// TestHedgedClientHangUpIsNoVerdict: on the hedged path a hang-up that
// cancels both legs is neither a success nor a failure — no breaker
// verdict, no latency sample — while the hedge book stays exact.
func TestHedgedClientHangUpIsNoVerdict(t *testing.T) {
	det := liveDetector()
	det.Hold = time.Hour // detection off: this test is about accounting
	done := make(chan Observation, 64)
	d, front, slows := grayCluster(t, 2, Config{
		Policy:  policy.NewWRR(2),
		Retries: 1,
		Health:  health.Config{Threshold: 3, Backoff: time.Hour},
		Gray:    &GrayConfig{Detector: det, Hedge: true},
		Observe: func(o Observation) { done <- o },
	})
	// Warm both latency windows (below their capacity, so every further
	// sample would show) until the hedge delay is published.
	for i := 0; i < 2*det.MinSamples; i++ {
		c := &http.Client{}
		get(t, c, front.URL, "/a.gif")
		c.CloseIdleConnections()
		<-done
	}
	if d.detector.HedgeDelay() <= 0 {
		t.Fatal("hedge delay not published after warmup")
	}
	health0, samples0 := d.Health(), d.detector.Snapshot()
	for _, s := range slows {
		s.delay.Store(int64(200 * time.Millisecond))
	}
	hangUp(t, front.URL, done, 3)
	g := d.Gray()
	if g.HedgesFired == 0 {
		t.Fatal("no hedge fired before the hang-ups; the test needs a racing pair")
	}
	if g.HedgeWins+g.HedgeCancels != g.HedgesFired {
		t.Fatalf("hedge accounting leaks: %+v", g)
	}
	for i, h := range d.Health() {
		if h.Successes != health0[i].Successes || h.Failures != 0 || h.State != "closed" {
			t.Fatalf("a hang-up reached backend %d's breaker: before %+v, after %+v", i, health0[i], h)
		}
		if n := d.detector.Snapshot()[i].Samples; n != samples0[i].Samples {
			t.Fatalf("a hang-up fed backend %d's detector: %d samples, was %d", i, n, samples0[i].Samples)
		}
		if n := d.Core().HedgeLoad(i); n != 0 {
			t.Fatalf("backend %d still holds %d hedge bookings", i, n)
		}
	}
	if st := d.Stats(); st.Retries != 0 || st.Errors != 0 {
		t.Fatalf("hang-ups were retried or counted as errors: Retries=%d Errors=%d", st.Retries, st.Errors)
	}
}

// hangUp issues n GETs that each cancel after 20ms, before the slowed
// backends answer, and waits for the front-end to finish each one.
func hangUp(t *testing.T, base string, done <-chan Observation, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		c := &http.Client{}
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/a.gif", nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp, err := c.Do(req); err == nil {
			resp.Body.Close()
			t.Fatalf("request %d answered before the client hung up", i)
		}
		cancel()
		c.CloseIdleConnections()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatalf("the front-end never finished hung-up request %d", i)
		}
	}
}
