package cpv

import (
	"fmt"
	"sort"
	"sync"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/firmware"
)

// probe is the lazily-built firmware inventory compile-time validation
// checks records against: the registered state-variable names, the MPU
// regions, and which (region, variable) write accesses the memory map
// grants. Building it boots one standard evaluation vehicle; the result is
// cached for the process lifetime (the variable registry is static).
var probe struct {
	once     sync.Once
	err      error
	vars     map[string]bool
	regions  map[string]bool
	writable map[string]bool // "region/variable" pairs with write access
}

func probeInventory() error {
	probe.once.Do(func() {
		fw, err := firmware.New(firmware.Config{})
		if err != nil {
			probe.err = fmt.Errorf("cpv: probe firmware: %w", err)
			return
		}
		probe.vars = make(map[string]bool)
		for _, name := range fw.Vars().Names() {
			probe.vars[name] = true
		}
		probe.regions = make(map[string]bool)
		probe.writable = make(map[string]bool)
		for _, region := range fw.Memory().Regions() {
			probe.regions[region] = true
			for name := range probe.vars {
				if _, err := fw.Memory().Access(region, name, true); err == nil {
					probe.writable[region+"/"+name] = true
				}
			}
		}
	})
	return probe.err
}

// Check validates a record statically and against the firmware inventory:
// every impacted variable must be registered, every named component must
// be a real MPU region, and the entry component must have write access to
// every impacted variable — an attack that could not actually reach its
// target cells is a catalog authoring error, surfaced here rather than as
// a mid-campaign job failure.
func Check(r Record) error {
	if err := r.Validate(); err != nil {
		return err
	}
	if err := probeInventory(); err != nil {
		return err
	}
	components := append([]string{r.EntryComponent}, r.RequiredComponents...)
	if r.ExitComponent != "" {
		components = append(components, r.ExitComponent)
	}
	for _, c := range components {
		if !probe.regions[c] {
			return fmt.Errorf("cpv: %s: unknown component %q", r.ID, c)
		}
	}
	for _, v := range r.Variables {
		if !probe.vars[v] {
			return fmt.Errorf("cpv: %s: unknown state variable %q", r.ID, v)
		}
		if !probe.writable[r.EntryComponent+"/"+v] {
			return fmt.Errorf("cpv: %s: entry component %q cannot write %q", r.ID, r.EntryComponent, v)
		}
	}
	return nil
}

// Options configures compile: the campaign identity plus the shared
// training budgets the records themselves do not carry.
type Options struct {
	// Name labels the compiled campaign (display only, excluded from
	// spec identity).
	Name string
	// Seed is the campaign base seed every job seed derives from.
	Seed int64
	// Trials is the default per-cell trial count for records that do not
	// set their own (0 means the campaign default of 1).
	Trials int
	// Episodes, MaxSteps and Learner bound the RL training of every
	// compiled job (zero/empty use the core defaults).
	Episodes int
	MaxSteps int
	Learner  string
}

// compile lowers a set of catalog records into one normalized
// campaign.Spec: records sort by ID, each becomes one sweep block tagged
// with its CPV ID, and the result is validated end to end. Compilation is
// canonical — the same record set (in any order) yields a byte-identical
// normalized spec, so the daemon's content-addressed identity (SpecHash)
// dedupes catalog assessments exactly like hand-written ones.
func compile(opts Options, records ...Record) (campaign.Spec, error) {
	if len(records) == 0 {
		return campaign.Spec{}, fmt.Errorf("cpv: compile needs at least one record")
	}
	sorted := append([]Record(nil), records...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].ID < sorted[j].ID })
	seen := make(map[string]bool, len(sorted))
	sweeps := make([]campaign.Sweep, 0, len(sorted))
	for _, r := range sorted {
		if err := Check(r); err != nil {
			return campaign.Spec{}, err
		}
		if seen[r.ID] {
			return campaign.Spec{}, fmt.Errorf("cpv: duplicate record id %q", r.ID)
		}
		seen[r.ID] = true
		sw, err := r.sweep()
		if err != nil {
			return campaign.Spec{}, err
		}
		sweeps = append(sweeps, sw)
	}
	spec := campaign.Spec{
		Name:     opts.Name,
		Seed:     opts.Seed,
		Trials:   opts.Trials,
		Episodes: opts.Episodes,
		MaxSteps: opts.MaxSteps,
		Learner:  opts.Learner,
		Sweeps:   sweeps,
	}.Normalized()
	if err := spec.Validate(); err != nil {
		return campaign.Spec{}, fmt.Errorf("cpv: compiled spec invalid: %w", err)
	}
	return spec, nil
}

// CompileIDs resolves catalog IDs and compiles them — the convenience the
// CLI and daemon surfaces share. Unknown IDs are an error listing the
// offender.
func CompileIDs(opts Options, ids ...string) (campaign.Spec, error) {
	recs := make([]Record, 0, len(ids))
	for _, id := range ids {
		r, ok := Get(id)
		if !ok {
			return campaign.Spec{}, fmt.Errorf("cpv: unknown catalog record %q", id)
		}
		recs = append(recs, r)
	}
	return compile(opts, recs...)
}
