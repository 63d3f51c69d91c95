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
	if os.Getenv("PRORD_LOADGEN_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs the command with args and returns its exit code and
// stderr.
func runMain(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "PRORD_LOADGEN_RUN_MAIN=1")
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
// layer on, not a silently ignored setting.
func TestTuningFlagsNeedTheirLayer(t *testing.T) {
	for _, tc := range []struct {
		args       []string
		flag, need string
	}{
		{[]string{"-hedge-cap", "3"}, "-hedge-cap", "-gray"},
		{[]string{"-hedge=false"}, "-hedge", "-gray"},
		{[]string{"-gray-hold", "1s"}, "-gray-hold", "-gray"},
		{[]string{"-gray", "-hedge-cap", "3"}, "-hedge-cap", "-hedge"},
		{[]string{"-overload-queue", "4"}, "-overload-queue", "-overload"},
		{[]string{"-pool-min", "1"}, "-pool-min", "-pool-initial"},
		{[]string{"-cold-join"}, "-cold-join", "-pool-initial"},
	} {
		// The bad mode makes a missing check fail fast instead of running.
		code, stderr := runMain(t, append(tc.args, "-mode", "bogus")...)
		want := tc.flag + " has no effect without " + tc.need
		if code != 2 || !strings.Contains(stderr, want) {
			t.Errorf("%v: exit %d, stderr %q; want exit 2 and %q", tc.args, code, stderr, want)
		}
	}
	// With every layer on, the same flags pass the check and the run
	// fails later, on the bad mode.
	code, stderr := runMain(t, "-gray", "-hedge", "-hedge-cap", "3", "-overload",
		"-overload-queue", "4", "-pool-initial", "1", "-pool-min", "1", "-mode", "bogus")
	if code != 1 || !strings.Contains(stderr, "unknown mode") {
		t.Errorf("layers on: exit %d, stderr %q; want exit 1 on the mode", code, stderr)
	}
}
