package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// machine describes where a result was measured.
type machine struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
	// LLCBytes is the size of the highest-level CPU cache cpu0 reports
	// (0 when the system does not say).
	LLCBytes int64 `json:"llc_bytes"`
	LLCLevel int   `json:"llc_level"`
}

func describeMachine() machine {
	m := machine{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPUModel:   "unknown",
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	const cacheDir = "/sys/devices/system/cpu/cpu0/cache/"
	entries, _ := os.ReadDir(cacheDir)
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "index") {
			continue
		}
		level, err1 := readInt(cacheDir + e.Name() + "/level")
		size, err2 := readCacheSize(cacheDir + e.Name() + "/size")
		if err1 == nil && err2 == nil && int(level) >= m.LLCLevel {
			m.LLCLevel, m.LLCBytes = int(level), size
		}
	}
	return m
}

func readInt(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	return strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
}

// readCacheSize parses a sysfs cache size such as "32768K" or "8M".
func readCacheSize(path string) (int64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	s := strings.TrimSpace(string(b))
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"):
		mult, s = 1<<10, strings.TrimSuffix(s, "K")
	case strings.HasSuffix(s, "M"):
		mult, s = 1<<20, strings.TrimSuffix(s, "M")
	}
	v, err := strconv.ParseInt(s, 10, 64)
	return v * mult, err
}

// resetPeakRSS sets the process's peak resident size (VmHWM) back to
// its current resident size; false where the system does not allow it.
func resetPeakRSS() bool {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) == nil
}

// peakRSSMiB is the process's peak resident size since the last
// resetPeakRSS (VmHWM in /proc/self/status), or since it started
// (getrusage) where /proc does not say.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kib, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64); err == nil {
					return float64(kib) / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
}

// mappedMiB sums the process's memory mappings of files under dir
// (from /proc/self/maps; 0 where the system does not provide it).
func mappedMiB(dir string) float64 {
	b, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		return 0
	}
	var total uint64
	for _, line := range strings.Split(string(b), "\n") {
		// start-end perms offset dev inode path
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasPrefix(f[5], dir+"/") {
			continue
		}
		lo, hi, ok := strings.Cut(f[0], "-")
		start, err1 := strconv.ParseUint(lo, 16, 64)
		end, err2 := strconv.ParseUint(hi, 16, 64)
		if ok && err1 == nil && err2 == nil {
			total += end - start
		}
	}
	return float64(total) / (1 << 20)
}
