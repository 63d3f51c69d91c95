package httpfront

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"strconv"
	"testing"
	"time"

	"prord/internal/autoscale"
	"prord/internal/fleet"
	"prord/internal/overload"
)

// TestCloseReleasesGoroutines: distributors with every background layer
// on (prefetch, probes, overload, gray with hedging, autoscale, and a
// k=2 fleet) serve a few requests, and once Close returns the goroutine
// count falls back to what it was before New.
func TestCloseReleasesGoroutines(t *testing.T) {
	var urls []*url.URL
	for i := 0; i < 3; i++ {
		srv := httptest.NewServer(NewDemoBackend("b"+strconv.Itoa(i), testFiles, 1<<20, 0))
		defer srv.Close()
		u, err := url.Parse(srv.URL)
		if err != nil {
			t.Fatal(err)
		}
		urls = append(urls, u)
	}
	// Proxies, probes and prefetch hints all use http.DefaultTransport,
	// whose idle keep-alive connections (and their reader goroutines on
	// both ends) outlive any one distributor by design: drop them on
	// both sides of the measurement.
	shared := http.DefaultTransport.(*http.Transport)
	shared.CloseIdleConnections()
	baseline := runtime.NumGoroutine()

	const tick = 5 * time.Millisecond
	layers := func() Config {
		return Config{
			Backends:      urls,
			Miner:         testMiner(),
			Prefetch:      true,
			ProbeInterval: tick,
			Overload:      &overload.Config{},
			Gray:          &GrayConfig{Hedge: true, Deadline: time.Second},
		}
	}
	ring, err := fleet.NewRing([]int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	ex := fleet.NewExchanger()
	var ds []*Distributor
	var peers []http.Handler
	for i := 0; i < 2; i++ {
		cfg := layers()
		cfg.Fleet = &FleetConfig{ReplicaID: i, Ring: ring, Exchanger: ex, GossipInterval: tick}
		d, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
		peers = append(peers, d)
	}
	for _, d := range ds {
		d.SetPeers(peers)
	}
	cfg := layers()
	cfg.Autoscale = &autoscale.Config{Initial: 2}
	cfg.ScaleInterval = tick
	scaled, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds = append(ds, scaled)

	for i, d := range ds {
		for c := 0; c < 4; c++ {
			for _, path := range []string{"/a.html", "/a.gif", "/b.html", "/b.gif"} {
				fleetGet(t, d, fmt.Sprintf("10.0.%d.%d:4000", i, c), path)
			}
		}
	}
	for _, d := range ds {
		d.Close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutines: %d before New, %d after Close\n%s",
				baseline, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		// Hints still in flight at Close park new idle connections.
		shared.CloseIdleConnections()
		time.Sleep(10 * time.Millisecond)
	}
}
