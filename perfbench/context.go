package main

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// runContext stamps a result with what it was measured on and with.
type runContext struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func newRunContext(cfg runConfig) runContext {
	return runContext{
		Workload:   cfg.workload,
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Traced:     cfg.traced,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit("."),
	}
}

// commit resolves HEAD of the git checkout rooted at dir by reading its
// .git directory, or returns "unknown" for an exported tree.
func commit(dir string) string {
	gitDir := filepath.Join(dir, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return "unknown"
}
