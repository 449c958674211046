package main

import (
	"context"
	"fmt"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// sample is one stack of a CPU profile and the time it was seen on CPU.
// Frames run leaf first; inlined calls are frames of their own.
type sample struct {
	value  time.Duration
	frames []string
}

// modulePrefix is the import path prefix of the repository's packages.
const modulePrefix = "github.com/ares-cps/ares/internal/"

// cpuPackages are the packages whose flat share of CPU samples the traced
// run reports as cpu.<name>.
var cpuPackages = []string{"ekf", "sim", "control", "sensors", "firmware", "rl",
	"core", "defense", "attack", "stats", "campaign", "serve", "dist", "json", "net", "runtime"}

// stages maps each stage metric to the functions whose cumulative share
// it reports: a sample counts once if any of its frames is one of them
// or a closure inside one.
var stages = []struct {
	name  string
	funcs []string
}{
	{"stage.ekf_predict", []string{"ekf.(*EKF).Predict"}},
	{"stage.warmup", []string{"core.(*baseEnv).reset"}},
	{"stage.rollout", []string{"core.(*baseEnv).advance"}},
	{"stage.physics", []string{"sim.(*Quad).Step", "sim.(*BatchQuad).StepLane"}},
	{"stage.rl_update", []string{"rl.(*Reinforce).Update"}},
	{"stage.calibrate", []string{"attack.CalibrateMonitorsFor"}},
	{"stage.session", []string{"attack.RunSession"}},
	{"stage.profile_flights", []string{"core.CollectProfile"}},
	{"stage.prune", []string{"stats.PruneStateVarsWorkers"}},
	{"stage.corr", []string{"stats.CorrelationMatrixWorkers"}},
	{"stage.select", []string{"stats.StepwiseAICWorkers"}},
	{"stage.store_append", []string{"campaign.(*Store).Append"}},
}

// cpuShares attributes a CPU profile with the Go toolchain's pprof.
func cpuShares(ctx context.Context, profile string) (map[string]float64, error) {
	ctx, cancel := context.WithTimeout(ctx, 60*time.Second)
	defer cancel()
	goBin, err := exec.LookPath("go")
	if err != nil {
		goBin = filepath.Join(runtime.GOROOT(), "bin", "go")
	}
	out, err := exec.CommandContext(ctx, goBin, "tool", "pprof", "-traces", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	samples, err := parseTraces(string(out))
	if err != nil {
		return nil, err
	}
	return attribute(samples), nil
}

// parseTraces reads `go tool pprof -traces` output: a header, then one
// block per distinct stack, each opened by a separator line and led by
// the sample's value beside its leaf frame.
func parseTraces(text string) ([]sample, error) {
	var out []sample
	inBlock := false
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			inBlock = true
			continue
		}
		if !inBlock || strings.TrimSpace(line) == "" {
			continue
		}
		fields := strings.Fields(line)
		if !strings.HasPrefix(line, " ") || len(fields) == 0 {
			continue
		}
		if d, err := time.ParseDuration(fields[0]); err == nil && len(fields) >= 2 {
			out = append(out, sample{value: d})
			fields = fields[1:]
		} else if len(out) == 0 {
			return nil, fmt.Errorf("pprof traces: frame before any sample: %q", line)
		}
		s := &out[len(out)-1]
		s.frames = append(s.frames, fields[0])
	}
	return out, nil
}

// attribute turns samples into cpu.<package> flat shares (by leaf frame)
// and stage.<name> cumulative shares, each over all sampled time.
func attribute(samples []sample) map[string]float64 {
	out := make(map[string]float64)
	for _, p := range cpuPackages {
		out["cpu."+p] = 0
	}
	for _, st := range stages {
		out[st.name] = 0
	}
	var total time.Duration
	for _, s := range samples {
		total += s.value
	}
	if total == 0 {
		return out
	}
	for _, s := range samples {
		share := float64(s.value) / float64(total)
		if len(s.frames) > 0 {
			if p := cpuBucket(s.frames[0]); p != "" {
				out["cpu."+p] += share
			}
		}
		for _, st := range stages {
			if stackHas(s.frames, st.funcs) {
				out[st.name] += share
			}
		}
	}
	return out
}

// packageOf returns the import path of a pprof function name such as
// "github.com/ares-cps/ares/internal/ekf.(*EKF).Predict".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuBucket names the cpu.* bucket a leaf function falls in, or "".
func cpuBucket(fn string) string {
	pkg := packageOf(fn)
	switch {
	case strings.HasPrefix(pkg, modulePrefix):
		name := strings.TrimPrefix(pkg, modulePrefix)
		for _, p := range cpuPackages {
			if name == p {
				return p
			}
		}
	case pkg == "encoding/json":
		return "json"
	case pkg == "net" || strings.HasPrefix(pkg, "net/"):
		return "net"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	}
	return ""
}

// stackHas reports whether any frame is one of funcs (given relative to
// modulePrefix) or a closure defined inside one.
func stackHas(frames, funcs []string) bool {
	for _, f := range frames {
		name, ok := strings.CutPrefix(f, modulePrefix)
		if !ok {
			continue
		}
		for _, want := range funcs {
			if name == want || strings.HasPrefix(name, want+".func") {
				return true
			}
		}
	}
	return false
}
