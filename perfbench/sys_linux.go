package main

import "syscall"

// childAttr makes the kernel kill a dimsatd child when the benchmark
// itself dies, even by SIGKILL, so no daemon outlives its run.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// selfPeakRSSMB is this process's peak resident set size; Linux reports
// ru_maxrss in kilobytes.
func selfPeakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) / 1024, nil
}
