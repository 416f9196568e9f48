package main

import (
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestShortSwarm drives a two-server cluster for a fraction of a second:
// requests complete and none fail.
func TestShortSwarm(t *testing.T) {
	var out strings.Builder
	err := run([]string{"-swarm", "-servers", "2", "-replicas", "2", "-mem-mb", "4",
		"-clients", "20", "-qps", "2000", "-keys", "1000", "-duration", "200ms"},
		&out, io.Discard, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`ok / failed\s+(\d+) / (\d+)\n`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("no ok/failed line in the report:\n%s", out.String())
	}
	if ok, _ := strconv.Atoi(m[1]); ok == 0 || m[2] != "0" {
		t.Errorf("ok %s, failed %s; want some ok and none failed:\n%s", m[1], m[2], out.String())
	}
}

// TestServeUntilStopped: serve mode returns once the stop channel fires.
func TestServeUntilStopped(t *testing.T) {
	stop := make(chan os.Signal, 1)
	stop <- os.Interrupt
	done := make(chan error, 1)
	go func() { done <- run([]string{"-servers", "2", "-mem-mb", "4"}, io.Discard, io.Discard, stop) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve mode did not return after stop")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-servers", "0"},
		{"-swarm", "-servers", "1", "-mem-mb", "4", "-zipf", "0.5", "-duration", "10ms"},
		{"-no-such-flag"},
	} {
		if err := run(args, io.Discard, io.Discard, nil); err == nil {
			t.Errorf("run(%q) accepted bad arguments", args)
		}
	}
}
