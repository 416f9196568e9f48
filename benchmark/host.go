package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// hostSnap is what the process has used so far: CPU seconds from
// getrusage (user + system, every thread) and the allocator's counters.
type hostSnap struct {
	cpuS    float64
	mallocs uint64
	bytes   uint64
	gcs     uint32
}

func snapHost() hostSnap {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer; a zero
	// reading would show as a zero metric, which the checks reject.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return hostSnap{
		cpuS:    tv(ru.Utime) + tv(ru.Stime),
		mallocs: ms.Mallocs,
		bytes:   ms.TotalAlloc,
		gcs:     ms.NumGC,
	}
}

// since returns what the process used between before and s.
func (s hostSnap) since(before hostSnap) hostSnap {
	return hostSnap{
		cpuS:    s.cpuS - before.cpuS,
		mallocs: s.mallocs - before.mallocs,
		bytes:   s.bytes - before.bytes,
		gcs:     s.gcs - before.gcs,
	}
}

// rssPeakMB reads VmHWM, the process's peak resident set, in MiB.
func rssPeakMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			f := strings.Fields(string(rest))
			if len(f) == 0 {
				break
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// hostHeader names the machine a report was measured on.
func hostHeader(seed int64) string {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d go=%s kernel=%s seed=%d",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), kernel, seed)
}
