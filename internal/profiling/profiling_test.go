package profiling

import (
	"os"
	"path/filepath"
	"testing"
)

// TestStartWritesBothProfiles: one Start/stop pair leaves a CPU and an
// allocation profile, each a non-empty pprof file.
func TestStartWritesBothProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.pprof"), filepath.Join(dir, "mem.pprof")
	stop, err := Start(cpu, mem)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Error(err)
		} else if st.Size() == 0 {
			t.Errorf("%s is empty", filepath.Base(p))
		}
	}
}

// TestStartWithoutPaths is the CLIs' default: nothing is written and stop
// succeeds.
func TestStartWithoutPaths(t *testing.T) {
	stop, err := Start("", "")
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStartReportsUnwritablePaths: a CPU path that cannot be created fails
// Start, and a memory path that cannot be created fails stop.
func TestStartReportsUnwritablePaths(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "missing", "p.pprof")
	if _, err := Start(bad, ""); err == nil {
		t.Error("Start accepted an uncreatable CPU profile path")
	}
	stop, err := Start("", bad)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err == nil {
		t.Error("stop accepted an uncreatable memory profile path")
	}
}
