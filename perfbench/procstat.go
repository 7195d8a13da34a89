package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// procSample is one reading of the whole-process counters the proc
// layer reports: CPU time from getrusage, write syscalls from
// /proc/self/io, and allocations and GC pause from the Go runtime.
type procSample struct {
	cpu     time.Duration
	syscw   uint64
	mallocs uint64
	gcPause time.Duration
}

func readProc() procSample {
	var s procSample
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s.syscw = procField("/proc/self/io", "syscw:")
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s.mallocs = ms.Mallocs
	s.gcPause = time.Duration(ms.PauseTotalNs)
	return s
}

func (s procSample) sub(o procSample) procSample {
	return procSample{
		cpu:     s.cpu - o.cpu,
		syscw:   s.syscw - o.syscw,
		mallocs: s.mallocs - o.mallocs,
		gcPause: s.gcPause - o.gcPause,
	}
}

// procMetrics reports the proc layer per unit of work (a solve pass or
// a gateway op).
func procMetrics(d procSample, units float64) []metric {
	return []metric{
		{"proc.cpu_ms_per_op", "ms", ratio(float64(d.cpu)/1e6, units), int(units)},
		{"proc.write_syscalls_per_op", "count", ratio(float64(d.syscw), units), int(units)},
		{"proc.allocs_per_op", "count", ratio(float64(d.mallocs), units), int(units)},
		{"proc.gc_pause_ms", "ms", ratio(float64(d.gcPause)/1e6, units), int(units)},
	}
}

// peakRSSMB is the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	return float64(procField("/proc/self/status", "VmHWM:")) / 1024
}

// procField returns the first integer after key in a /proc text file,
// or 0 when the file or key is missing.
func procField(path, key string) uint64 {
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, key); ok {
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				return 0
			}
			v, _ := strconv.ParseUint(fields[0], 10, 64)
			return v
		}
	}
	return 0
}
