package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets a test run this binary as the command itself.
func TestMain(m *testing.M) {
	if os.Getenv("PRORD_SERVER_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args and returns its exit code and
// stderr. Every case must fail before the server starts listening.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PRORD_SERVER_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return exit.ExitCode(), stderr.String()
	}
	if err != nil {
		t.Fatal(err)
	}
	return 0, stderr.String()
}

// TestTuningFlagsNeedTheirLayer: a tuning flag set for a layer that is
// off is a usage error naming the flag and the switch that turns the
// layer on. -hedge defaults to true, so setting it explicitly with
// -gray=false is rejected even though the value did not change.
func TestTuningFlagsNeedTheirLayer(t *testing.T) {
	for _, tc := range []struct {
		args       []string
		flag, need string
	}{
		{[]string{"-gray=false", "-hedge-cap", "5"}, "-hedge-cap", "-gray"},
		{[]string{"-gray=false", "-hedge"}, "-hedge", "-gray"},
		{[]string{"-gray=false", "-deadline", "1s"}, "-deadline", "-gray"},
		{[]string{"-gray=false", "-gray-multiplier", "4"}, "-gray-multiplier", "-gray"},
		{[]string{"-gray=false", "-gray-hold", "1s"}, "-gray-hold", "-gray"},
		{[]string{"-hedge=false", "-hedge-cap", "5"}, "-hedge-cap", "-hedge"},
		{[]string{"-overload=false", "-overload-capacity", "8"}, "-overload-capacity", "-overload"},
		{[]string{"-overload=false", "-overload-min-hold", "2s"}, "-overload-min-hold", "-overload"},
		{[]string{"-pool-min", "1"}, "-pool-min", "-pool-initial"},
		{[]string{"-pool-cold-join"}, "-pool-cold-join", "-pool-initial"},
		{[]string{"-fleet-gossip", "1s"}, "-fleet-gossip", "-fleet-replicas"},
		{[]string{"-probe-interval", "0", "-probe-timeout", "1s"}, "-probe-timeout", "-probe-interval"},
	} {
		// The bad backend count makes a missing check fail fast instead of running.
		code, stderr := runMain(t, append(tc.args, "-backends", "0")...)
		want := tc.flag + " has no effect without " + tc.need
		if code != 2 || !strings.Contains(stderr, want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and %q", tc.args, code, stderr, want)
		}
	}
	// With the default layers on, the same flags pass the check and
	// startup fails later, on the bad backend count.
	code, stderr := runMain(t, "-hedge-cap", "5", "-deadline", "1s", "-overload-capacity", "8",
		"-pool-initial", "1", "-pool-min", "1", "-probe-timeout", "1s", "-backends", "0")
	if code != 1 || !strings.Contains(stderr, "-backends must be positive") {
		t.Errorf("layers on: exit %d, stderr %q; want exit 1 on -backends", code, stderr)
	}
}
