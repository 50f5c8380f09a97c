package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test re-run this binary as feves-fleet itself, so the
// flag table below exercises main exactly as a shell would.
func TestMain(m *testing.M) {
	if os.Getenv("FEVES_FLEET_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestBadFlagsExitOneNamingTheCause runs feves-fleet with flags it must
// refuse before serving: each exits 1 with a message naming the bad value
// — never a panic's stack trace and exit 2.
func TestBadFlagsExitOneNamingTheCause(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-heartbeat", "0"}, "-heartbeat"},
		{[]string{"-heartbeat", "-1s"}, "-heartbeat"},
		{[]string{"-nodes", "bogus"}, "bogus"},
		{[]string{"-deaths", "kill:node0@1"}, "kill:node0@1"},
		{[]string{"-deaths", "die:node9@1"}, "node9"},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			cmd := exec.CommandContext(ctx, os.Args[0], append([]string{"-addr", "127.0.0.1:0"}, tc.args...)...)
			cmd.Env = append(os.Environ(), "FEVES_FLEET_RUN_MAIN=1")
			out, err := cmd.CombinedOutput()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != 1 {
				t.Fatalf("exit %v, want status 1; output:\n%s", err, out)
			}
			if !strings.Contains(string(out), tc.want) || strings.Contains(string(out), "goroutine ") {
				t.Fatalf("output does not name %q cleanly:\n%s", tc.want, out)
			}
		})
	}
}
