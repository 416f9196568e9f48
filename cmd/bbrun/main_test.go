package main

import (
	"io"
	"strings"
	"testing"
)

func runOut(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out, io.Discard); err != nil {
		t.Fatalf("run(%q): %v", args, err)
	}
	return out.String()
}

func TestRunTestbedWorkload(t *testing.T) {
	out := runOut(t, "-workload", "dfsio-write", "-backend", "bb-async", "-nodes", "2", "-files", "2", "-size-mb", "16")
	for _, want := range []string{"files=2 x 16MiB ", "burst buffer: flushed=", "flush latency: ", "network:"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestRunFleetSwarm(t *testing.T) {
	out := runOut(t, "-fleet", "-swarm", "-nodes", "4", "-racks-of", "2", "-shards", "2",
		"-clients", "100", "-qps", "1e5", "-swarm-ms", "2")
	for _, want := range []string{"swarm: clients=100 nodes=4 racks=2 shards=2 ", "fingerprint=", "  swarm."} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}

func TestRunRejectsBadSettings(t *testing.T) {
	for _, args := range [][]string{
		{"-nodes", "-1", "-size-mb", "1"},
		{"-backend", "bb-nonesuch"},
		{"-workload", "grep", "-nodes", "2", "-size-mb", "1"},
		{"-swarm"},
		{"-fleet", "-workload", "sort", "-nodes", "4", "-racks-of", "2"},
		{"-no-such-flag"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("run(%q) accepted bad settings", args)
		}
	}
}
