package main

import (
	"io"
	"strings"
	"testing"

	"hbb"
)

func TestListNamesEveryExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-list"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, e := range hbb.Experiments() {
		if !strings.Contains(out.String(), e.ID+" ") {
			t.Errorf("-list does not name %s", e.ID)
		}
	}
}

func TestRunOneExperiment(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-experiment", "tab1"}, &out, io.Discard); err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(out.String(), "# tab1 — ") || !strings.Contains(out.String(), "scale=small)") {
		t.Errorf("tab1 output:\n%s", out.String())
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-experiment", "fig99"},
		{"-scale", "huge", "-experiment", "tab1"},
		{"-backends", "hdfs,bb-nonesuch", "-list"},
		{"-no-such-flag"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("run(%q) accepted bad arguments", args)
		}
	}
}
