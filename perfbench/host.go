package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/ares-cps/ares/internal/par"
)

// hostProbe samples the host before a run so its diagnostics can report
// what happened during it. None of it gates anything: it exists so a
// noisy run can be traced to a busy or stolen CPU.
type hostProbe struct {
	steal0 float64
	speed0 float64
}

func startHost() *hostProbe { return &hostProbe{steal0: stealSeconds(), speed0: hostSpeed()} }

func (h *hostProbe) finish() map[string]any {
	return map[string]any{
		"speed_start": h.speed0,
		"speed_end":   hostSpeed(),
		"steal_s":     stealSeconds() - h.steal0,
		"nproc":       runtime.NumCPU(),      //areslint:ignore parbudget recording environment metadata, not sizing a pool
		"gomaxprocs":  runtime.GOMAXPROCS(0), //areslint:ignore parbudget recording environment metadata, not sizing a pool
		"go":          runtime.Version(),
		"cpu_model":   cpuModel(),
		"loadavg":     loadAvg(),
	}
}

// stealSeconds is the machine's total steal time from /proc/stat, in
// seconds (the kernel counts in USER_HZ, which is 100 on Linux).
func stealSeconds() float64 {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) > 8 && f[0] == "cpu" {
			v, err := strconv.ParseFloat(f[8], 64)
			if err != nil {
				return 0
			}
			return v / 100
		}
	}
	return 0
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// hostSpeed times a fixed floating-point kernel — dense 9×9 products,
// the shape of the EKF covariance update — on every P at once and
// returns kernel iterations per second. The kernel is the benchmark's
// own code, so a change to the program cannot move it; only the host can.
func hostSpeed() float64 {
	const iters = 100000
	p := par.Workers(0)
	sink := make([]float64, p)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < p; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sink[i] = speedKernel(iters)
		}(i)
	}
	wg.Wait()
	speedSink = sink[0]
	return float64(iters*p) / time.Since(start).Seconds()
}

// speedSink keeps the kernel's result alive so the compiler cannot drop it.
var speedSink float64

func speedKernel(n int) float64 {
	var a, b, c [9][9]float64
	for i := range a {
		for j := range a[i] {
			a[i][j] = 1 / float64(i+j+1)
			b[i][j] = float64((i*7+j*3)%5) * 0.1
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < 9; i++ {
			for j := 0; j < 9; j++ {
				s := 0.0
				for m := 0; m < 9; m++ {
					s += a[i][m] * b[j][m]
				}
				c[i][j] = s
			}
		}
		a, c = c, a
		a[k%9][k%9] += 1e-3 // keep the iterate from settling
		for i := range a {
			for j := range a[i] {
				a[i][j] *= 0.5
			}
		}
	}
	return a[0][0]
}

func loadAvg() string {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return ""
	}
	f := strings.Fields(string(data))
	if len(f) < 3 {
		return ""
	}
	return strings.Join(f[:3], " ")
}
