// Package profiling wires the CLIs' -cpuprofile/-memprofile flags to
// runtime/pprof, so kernel hot paths can be profiled on real experiment
// workloads rather than only on micro-benchmarks.
package profiling

import (
	"errors"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins writing a CPU profile to cpuPath and returns the function
// that ends the run's profiling: it stops the CPU profile and closes its
// file, then dumps an allocation profile (pprof "allocs", which includes
// in-use space, after a GC so in-use numbers reflect live data) to
// memPath. An empty path skips that profile; stop is non-nil whenever err
// is nil.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpu *os.File
	if cpuPath != "" {
		if cpu, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpu); err != nil {
			cpu.Close()
			return nil, err
		}
	}
	return func() error {
		var errs []error
		if cpu != nil {
			pprof.StopCPUProfile()
			errs = append(errs, cpu.Close())
		}
		if memPath != "" {
			errs = append(errs, writeHeap(memPath))
		}
		return errors.Join(errs...)
	}, nil
}

func writeHeap(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
