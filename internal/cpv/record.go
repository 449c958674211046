// Package cpv is the declarative cyber-physical vulnerability catalog.
//
// The paper's position is that vulnerability assessment of aerial vehicles
// should be driven by a reusable catalog of cyber-physical weaknesses, not
// by ad-hoc test scripts. Following the SACI CPV-database shape, each
// catalog entry (Record) declares a vulnerability as data: the components
// the attack needs, where it enters and where its effect leaves the
// system, the initial conditions, the attack vector and goal, the impacted
// state variables, and the success thresholds — plus literature
// references.
//
// Records are not executable by themselves. compile lowers any subset of
// them into a normalized campaign.Spec (one sweep block per record), which
// the existing campaign runner, CLI and assessment daemon execute
// unchanged. Compilation is deterministic — records are sorted by ID and
// every job seed derives from the job key — and validating: a record
// naming an unknown state variable, MPU region or mission kind fails at
// compile time, not mid-flight.
package cpv

import (
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strings"

	"github.com/ares-cps/ares/internal/campaign"
)

// Record is one declarative catalog entry: a cyber-physical vulnerability
// described as data, in the SACI CPV-database shape.
type Record struct {
	// ID is the stable catalog identifier (e.g. "ARES-CPV-001"). It
	// prefixes every compiled job key, so it must not contain '/'.
	ID string `json:"id"`
	// Name is the short human-readable title.
	Name string `json:"name"`
	// Description explains the weakness and its physical consequence.
	Description string `json:"description,omitempty"`

	// RequiredComponents lists the MPU regions the attack needs present
	// (validated against the firmware's memory map).
	RequiredComponents []string `json:"required_components,omitempty"`
	// EntryComponent is the compromised region the attacker's code runs
	// in; it must have write access to every impacted variable.
	EntryComponent string `json:"entry_component"`
	// ExitComponent is the region where the corrupted state leaves the
	// software and becomes physical effect (typically "actuators").
	ExitComponent string `json:"exit_component,omitempty"`
	// InitialConditions documents the vehicle state the assessment
	// assumes (informational; keys sort deterministically in JSON).
	InitialConditions map[string]string `json:"initial_conditions,omitempty"`

	// AttackVector selects the manipulation: campaign.AttackRL trains the
	// RL exploit, campaign.AttackStealthy runs the shadow-monitor
	// magnitude-scheduled injection.
	AttackVector string `json:"attack_vector"`
	// Goal is the failure class: campaign.GoalDeviation (uncontrolled)
	// or campaign.GoalCrash (controlled, forbidden-zone contact).
	Goal string `json:"goal"`
	// Variables are the impacted state variables the attack manipulates;
	// each becomes one axis value of the compiled sweep.
	Variables []string `json:"variables"`
	// Missions are the flights to assess against, in the
	// campaign.ParseMission "kind:size[:alt]" syntax. Empty uses the
	// campaign default (line:60:10).
	Missions []string `json:"missions,omitempty"`
	// Defenses are the deployed countermeasures to sweep (none/ci/
	// recovery). Empty uses the campaign default (none).
	Defenses []string `json:"defenses,omitempty"`

	// Trials, MaxAction and SuccessDeviation override the compiled
	// sweep's thresholds (zero inherits the compile options / campaign
	// defaults).
	Trials           int     `json:"trials,omitempty"`
	MaxAction        float64 `json:"max_action,omitempty"`
	SuccessDeviation float64 `json:"success_deviation,omitempty"`

	// References cite the literature the entry derives from.
	References []string `json:"references,omitempty"`
}

// idPattern keeps IDs job-key-safe: no '/', no whitespace, no empties.
var idPattern = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// Validate checks the record statically: shape, enum values and mission
// syntax. It does not touch the firmware; Check adds that.
func (r Record) Validate() error {
	if !idPattern.MatchString(r.ID) {
		return fmt.Errorf("cpv: record id %q must match %s", r.ID, idPattern)
	}
	if strings.TrimSpace(r.Name) == "" {
		return fmt.Errorf("cpv: %s: record needs a name", r.ID)
	}
	if r.AttackVector != campaign.AttackRL && r.AttackVector != campaign.AttackStealthy {
		return fmt.Errorf("cpv: %s: unknown attack vector %q", r.ID, r.AttackVector)
	}
	if r.Goal != campaign.GoalDeviation && r.Goal != campaign.GoalCrash {
		return fmt.Errorf("cpv: %s: unknown goal %q", r.ID, r.Goal)
	}
	if r.AttackVector == campaign.AttackStealthy && r.Goal == campaign.GoalCrash {
		return fmt.Errorf("cpv: %s: stealthy attack supports only the deviation goal", r.ID)
	}
	if len(r.Variables) == 0 {
		return fmt.Errorf("cpv: %s: record needs at least one impacted variable", r.ID)
	}
	for _, v := range r.Variables {
		if strings.TrimSpace(v) == "" {
			return fmt.Errorf("cpv: %s: empty variable name", r.ID)
		}
	}
	if strings.TrimSpace(r.EntryComponent) == "" {
		return fmt.Errorf("cpv: %s: record needs an entry component", r.ID)
	}
	for _, m := range r.Missions {
		if _, err := campaign.ParseMission(m); err != nil {
			return fmt.Errorf("cpv: %s: %w", r.ID, err)
		}
	}
	for _, d := range r.Defenses {
		switch d {
		case campaign.DefenseNone, campaign.DefenseCI, campaign.DefenseRecovery:
		default:
			return fmt.Errorf("cpv: %s: unknown defense %q", r.ID, d)
		}
	}
	if r.Trials < 0 {
		return fmt.Errorf("cpv: %s: negative trials", r.ID)
	}
	if math.IsNaN(r.MaxAction) || math.IsInf(r.MaxAction, 0) || r.MaxAction < 0 {
		return fmt.Errorf("cpv: %s: max_action must be finite and non-negative", r.ID)
	}
	if math.IsNaN(r.SuccessDeviation) || math.IsInf(r.SuccessDeviation, 0) || r.SuccessDeviation < 0 {
		return fmt.Errorf("cpv: %s: success_deviation must be finite and non-negative", r.ID)
	}
	return nil
}

// sweep lowers the record into one campaign axis block. The record must
// already be validated.
func (r Record) sweep() (campaign.Sweep, error) {
	sw := campaign.Sweep{
		CPV:              r.ID,
		Variables:        append([]string(nil), r.Variables...),
		Goals:            []string{r.Goal},
		Attacks:          []string{r.AttackVector},
		Defenses:         append([]string(nil), r.Defenses...),
		Trials:           r.Trials,
		MaxAction:        r.MaxAction,
		SuccessDeviation: r.SuccessDeviation,
	}
	for _, m := range r.Missions {
		ms, err := campaign.ParseMission(m)
		if err != nil {
			return campaign.Sweep{}, fmt.Errorf("cpv: %s: %w", r.ID, err)
		}
		sw.Missions = append(sw.Missions, ms)
	}
	return sw, nil
}

// maxRecordsBytes caps catalog documents the parser accepts, mirroring the
// daemon's request-body cap: a catalog is authored data, not bulk.
const maxRecordsBytes = 1 << 20

// ParseRecords decodes a JSON array of records with strict field checking
// (unknown fields are authoring mistakes, not extensions) and validates
// each statically. Hostile or malformed input produces an error, never a
// panic.
func ParseRecords(data []byte) ([]Record, error) {
	if len(data) > maxRecordsBytes {
		return nil, fmt.Errorf("cpv: catalog document exceeds %d bytes", maxRecordsBytes)
	}
	var recs []Record
	if err := campaign.DecodeStrict(bytes.NewReader(data), &recs); err != nil {
		return nil, fmt.Errorf("cpv: parse: %w", err)
	}
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	return recs, nil
}
