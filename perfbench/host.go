package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
)

// fingerprint identifies the host and build a result was measured on.
// Floating-point results differ across CPU classes (amd64 against 386, FMA
// or not), so hpwl compares only across matching fingerprints.
type fingerprint struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	FMA        string `json:"fma"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
}

// hostFingerprint reads the fingerprint; root is the source tree whose .go
// and go.mod files are hashed, so a checkout without git history is still
// identified.
func hostFingerprint(root, commit string) fingerprint {
	return fingerprint{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		FMA:        fmaFlag(),
		Commit:     commit,
		SourceHash: sourceHash(root),
	}
}

// fmaFlag reports "yes" or "no" from the CPU flags in /proc/cpuinfo, and
// "unknown" where that file does not exist.
func fmaFlag() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "flags") {
			continue
		}
		for _, f := range strings.Fields(line) {
			if f == "fma" {
				return "yes"
			}
		}
		return "no"
	}
	return "unknown"
}

// sourceHash hashes every .go and go.mod file under root, skipping hidden
// directories, in path order.
func sourceHash(root string) string {
	var paths []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		rel, _ := filepath.Rel(root, p)
		h.Write([]byte(rel))
		h.Write([]byte{0})
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// usage is this process's resource use so far.
type usage struct {
	cpu    float64 // user+sys seconds
	peakMB float64 // peak resident set size
}

// selfUsage reads getrusage(RUSAGE_SELF).
func selfUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return rusageOf(&ru)
}

// rusageOf converts a rusage record; ru_maxrss is in KiB on Linux.
func rusageOf(ru *syscall.Rusage) usage {
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{
		cpu:    tv(ru.Utime) + tv(ru.Stime),
		peakMB: float64(ru.Maxrss) / 1024,
	}
}

// resetPeakRSS returns freed heap to the OS and resets the kernel's peak-RSS
// mark, so that peakRSSMB then reports the peak of what runs next alone.
// Where the reset is unsupported (not Linux), peakRSSMB reports the process
// lifetime peak instead.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// peakRSSMB is the peak resident set size since the last resetPeakRSS,
// from VmHWM in /proc/self/status, or the lifetime peak from getrusage.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			f := strings.Fields(line)
			if len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return selfUsage().peakMB
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// median is quantile(xs, 0.5).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// hashBytes is the hex SHA-256 of b.
func hashBytes(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}
