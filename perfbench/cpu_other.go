//go:build !amd64

package main

// cpuModel is only implemented on amd64.
func cpuModel() string { return "unknown" }
