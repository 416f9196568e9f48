package main

import (
	"bufio"
	"io"
	"os"
	"strings"
	"testing"
	"time"

	"hbb/internal/memcached/mcclient"
)

// TestServeUntilStopped serves on an ephemeral loopback port, answers a
// client, and returns cleanly once the stop channel fires.
func TestServeUntilStopped(t *testing.T) {
	pr, pw := io.Pipe()
	stop := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-mem-mb", "8", "-drain", "1s"}, pw, stop)
		pw.Close()
	}()
	logLine, err := bufio.NewReader(pr).ReadString('\n')
	if err != nil {
		t.Fatalf("reading the listen line: %v", err)
	}
	go io.Copy(io.Discard, pr)
	_, after, ok := strings.Cut(logLine, " listening on ")
	if !ok {
		t.Fatalf("log line %q names no address", logLine)
	}
	addr, _, _ := strings.Cut(after, " ")

	c, err := mcclient.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Set(&mcclient.Item{Key: "k", Value: []byte("v")}); err != nil {
		t.Fatal(err)
	}
	if it, err := c.Get("k"); err != nil || string(it.Value) != "v" {
		t.Fatalf("get k = %v, %v", it, err)
	}
	c.Close()

	stop <- os.Interrupt
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run after stop: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("run did not return after stop")
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	stop := make(chan os.Signal)
	for _, args := range [][]string{{"-addr", "not-an-address"}, {"-no-such-flag"}} {
		if err := run(args, io.Discard, stop); err == nil {
			t.Errorf("run(%q) accepted bad arguments", args)
		}
	}
}
