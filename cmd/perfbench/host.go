package main

import (
	"fmt"
	"os"
	"regexp"
	"runtime"
	"strings"
)

// Host identifies the machine a result was measured on. Two results
// are comparable only when their Key matches: the normalized CPU
// model, core counts, platform and Go version all agree.
type Host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// CPUModel is normalized (see normalizeCPUModel); RawCPUModel is
	// the string as the kernel reports it.
	CPUModel    string `json:"cpu_model"`
	RawCPUModel string `json:"raw_cpu_model,omitempty"`
}

// currentHost collects this process's host identity.
func currentHost() Host {
	raw := rawCPUModel()
	return Host{
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		CPUModel:    normalizeCPUModel(raw),
		RawCPUModel: raw,
	}
}

// Key is the comparison identity of the host.
func (h Host) Key() string {
	return fmt.Sprintf("%s/%s cpus=%d procs=%d %s %q", h.GOOS, h.GOARCH, h.NumCPU, h.GOMAXPROCS, h.GoVersion, h.CPUModel)
}

// rawCPUModel returns the first "model name" of /proc/cpuinfo, or ""
// where there is none.
func rawCPUModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return val
		}
	}
	return ""
}

// freqSuffix matches a trailing clock-frequency annotation such as
// "@ 2.10GHz" or "@2100MHz".
var freqSuffix = regexp.MustCompile(`(?i)\s*@\s*[0-9.]+\s*[gm]hz\s*$`)

// normalizeCPUModel strips the frequency suffix and collapses
// whitespace. The same part reports "@ 2.10GHz" on one boot and no
// suffix on another, and results must not be kept apart by that.
func normalizeCPUModel(s string) string {
	s = freqSuffix.ReplaceAllString(s, "")
	return strings.Join(strings.Fields(s), " ")
}
