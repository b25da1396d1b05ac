//go:build !linux

package main

func fsType(string) string { return "unknown" }

func peakRSS() float64 { return 0 }
