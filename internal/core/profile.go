package core

import (
	"context"
	"fmt"
	"math"
	"sync"

	"github.com/ares-cps/ares/internal/dataflash"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/par"
	"github.com/ares-cps/ares/internal/sensors"
	"github.com/ares-cps/ares/internal/vars"
)

// Profiling traces every registered variable at the paper's 16 Hz logging
// rate, for at most 120 simulated seconds per mission.
const (
	profileSampleHz    = 16
	profileMaxMissionS = 120
)

// ProfileConfig configures the RAV profiling step: benign missions flown
// while tracing the full state variable space.
type ProfileConfig struct {
	// Mission is the benign mission to fly; nil uses the 25 m square.
	Mission *firmware.Mission
	// Missions is the number of benign flights (the paper logs 5).
	Missions int
	// Seed seeds sensor noise; each mission uses Seed+i.
	Seed int64
	// Parallelism bounds how many missions fly at once; <= 0 uses the
	// process budget (GOMAXPROCS). The profile is identical at any value.
	Parallelism int
}

// Profile holds the traced operation data: one time series per state
// variable, concatenated across missions (with per-mission lengths kept so
// analyses can split them).
type Profile struct {
	// Names lists the traced variables in stable order.
	Names []string
	// Series maps variable name to its samples.
	Series map[string][]float64
	// MissionLens records the sample count of each mission.
	MissionLens []int
	// SampleHz is the trace rate used.
	SampleHz float64
}

// Samples returns the total sample count per variable.
func (p *Profile) Samples() int {
	total := 0
	for _, n := range p.MissionLens {
		total += n
	}
	return total
}

// SeriesFor assembles the (names, series) pair for a list of variables,
// skipping any that were not traced; the second return lists the skipped
// names.
func (p *Profile) SeriesFor(names []string) ([]string, [][]float64, []string) {
	var kept []string
	var series [][]float64
	var missing []string
	for _, n := range names {
		s, ok := p.Series[n]
		if !ok {
			missing = append(missing, n)
			continue
		}
		kept = append(kept, n)
		series = append(series, s)
	}
	return kept, series, missing
}

// CollectProfile flies the configured benign missions and traces the state
// variable space through the live variable set — the memory-instrumentation
// view of the paper's profiling step.
//
// Missions are independent (mission m builds its own firmware seeded
// Seed+m), so they fly on a pool of cfg.Parallelism workers. Each flight
// records into its own chunked buffer, and a flight is merged into Series
// as soon as it and every earlier mission have landed, after which its
// buffer is dropped. The profile, and on failure the error of the
// lowest-numbered failing mission, are identical to flying the missions
// one after another.
func CollectProfile(cfg ProfileConfig) (*Profile, error) {
	if cfg.Mission == nil {
		cfg.Mission = firmware.SquareMission(25, 10)
	}
	if cfg.Missions <= 0 {
		cfg.Missions = 5
	}

	prof := &Profile{
		Series:   make(map[string][]float64),
		SampleHz: profileSampleHz,
	}
	var (
		mu     sync.Mutex
		landed = make([]*flight, cfg.Missions)
		errs   = make([]error, cfg.Missions)
		next   int // the lowest mission not yet merged
	)
	// ForEach hands out missions in order and stops handing them out after
	// a failure, so every mission below a failed one has flown and the
	// lowest failure is the one a sequential loop would have hit first.
	par.ForEach(context.Background(), cfg.Parallelism, cfg.Missions, func(m int) error {
		f, err := flyProfileMission(cfg, m)
		mu.Lock()
		defer mu.Unlock()
		landed[m], errs[m] = f, err
		for ; next < cfg.Missions && landed[next] != nil; next++ {
			prof.merge(landed[next], cfg.Missions)
			landed[next] = nil
		}
		return err
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return prof, nil
}

// flightChunkRows is the number of samples per chunk of an in-flight
// mission's buffer, which bounds a flight's unused capacity to one chunk.
const flightChunkRows = 64

// flight is one profiling mission's trace: row-major samples of its
// variables in fixed-size chunks.
type flight struct {
	names  []string
	chunks [][]float64
	n      int
}

// record appends one sample of every ref.
func (f *flight) record(refs []vars.Ref) {
	w := len(refs)
	r := f.n % flightChunkRows
	if r == 0 {
		f.chunks = append(f.chunks, make([]float64, flightChunkRows*w))
	}
	row := f.chunks[len(f.chunks)-1][r*w : (r+1)*w]
	for j, ref := range refs {
		row[j] = ref.Get()
	}
	f.n++
}

// merge appends the next mission's flight to every series. A series too
// small for the merged samples is reallocated to the merged length plus
// the mean mission length so far for every mission still to come, so
// in-order merges rarely copy and leave little unused capacity.
func (p *Profile) merge(f *flight, missions int) {
	m := len(p.MissionLens)
	if m == 0 {
		p.Names = f.names
	}
	merged := p.Samples() + f.n
	want := merged + merged/(m+1)*(missions-m-1)
	w := len(f.names)
	for j, name := range f.names {
		s := p.Series[name]
		if cap(s) < merged {
			grown := make([]float64, len(s), want)
			copy(grown, s)
			s = grown
		}
		for c, chunk := range f.chunks {
			rows := min(flightChunkRows, f.n-c*flightChunkRows)
			for r := 0; r < rows; r++ {
				s = append(s, chunk[r*w+j])
			}
		}
		p.Series[name] = s
	}
	p.MissionLens = append(p.MissionLens, f.n)
}

// flyProfileMission flies benign mission m and records its trace.
func flyProfileMission(cfg ProfileConfig, m int) (*flight, error) {
	fw, err := firmware.Launch(firmware.Config{
		Sensors: sensors.Seeded(cfg.Seed + int64(m)), //areslint:ignore seedarith golden-pinned
	}, cfg.Mission, 10)
	if err != nil {
		return nil, fmt.Errorf("core: profiling mission %d: %w", m, err)
	}
	refs := fw.Vars().Refs()
	f := &flight{names: fw.Vars().Names()}
	every := int(math.Max(1, math.Round(1/(profileSampleHz*fw.DT()))))
	maxTicks := int(profileMaxMissionS / fw.DT())
	for i := 0; i < maxTicks && !fw.Mission().Complete(); i++ {
		fw.Step()
		if i%every == 0 {
			f.record(refs)
		}
	}
	if crashed, reason := fw.Quad().Crashed(); crashed {
		return nil, fmt.Errorf("core: profiling mission %d crashed: %s", m, reason)
	}
	return f, nil
}

// ProfileFromLog builds a Profile from a recorded dataflash log — the
// paper's actual KSVL source ("the onboard dataflash memory logger, which
// can be downloaded after an operational mission for debugging"). Only the
// variables the logger records are available; the intermediate controller
// variables that require memory instrumentation (PIDR.INTEG, CMD.*, …) are
// absent, which is exactly the visibility gap the ESVL expansion closes.
//
// Every logged variable is extracted; variables with no records are skipped.
func ProfileFromLog(log *dataflash.Log) (*Profile, error) {
	prof := &Profile{Series: make(map[string][]float64)}
	n := -1
	for _, name := range log.Variables() {
		_, values := log.Series(name)
		if len(values) == 0 {
			continue
		}
		if n < 0 {
			n = len(values)
		}
		if len(values) != n {
			// Message types logged at different cadences cannot share
			// one aligned matrix; truncate to the shortest.
			if len(values) < n {
				n = len(values)
			}
		}
		prof.Names = append(prof.Names, name)
		prof.Series[name] = values
	}
	if len(prof.Names) == 0 {
		return nil, fmt.Errorf("core: log contains no variable records")
	}
	for _, name := range prof.Names {
		prof.Series[name] = prof.Series[name][:n]
	}
	prof.MissionLens = []int{n}
	// Infer the sample rate from the first variable's timestamps.
	if times, _ := log.Series(prof.Names[0]); len(times) > 1 {
		dt := (times[len(times)-1] - times[0]) / float64(len(times)-1)
		if dt > 0 {
			prof.SampleHz = 1 / dt
		}
	}
	return prof, nil
}
