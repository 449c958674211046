// Package defense implements the three RAV runtime monitors the paper
// evaluates ARES against:
//
//   - ControlInvariants — the control-invariants detector of Choi et al.
//     (CCS'18): a system-identified linear state model whose cumulative
//     prediction error over a 1024-step window at 400 Hz is compared to a
//     threshold of 400 000 (the paper's Figure 6 configuration).
//   - MLMonitor — the learning-based controller-output monitor of Ding et
//     al. (RAID'21): a trained model predicts the PID output and the
//     "control output distance" between predicted and actual output is
//     compared to a benign-error bound of 0.01 (Figure 7).
//   - EKFResidual — the SAVIOR-style physical-invariants monitor of
//     Quinonez et al. (USENIX Sec'20): a CUSUM statistic over the residual
//     between sensed and EKF-estimated state (Figure 8).
//
// Each monitor exposes the detection statistic itself so the experiments
// can plot it, and a Verdict carrying the alarm decision.
package defense

import (
	"fmt"
)

// Verdict is one monitoring decision.
type Verdict struct {
	// Stat is the current detection statistic (cumulative error, output
	// distance, or CUSUM score depending on the monitor).
	Stat float64
	// Alarm reports whether the statistic exceeds the threshold.
	Alarm bool
}

// CISample is one observation for the control-invariants monitor: the
// vehicle attitude and the attitude the controller was told to reach.
type CISample struct {
	Roll, Pitch, Yaw          float64
	DesRoll, DesPitch, DesYaw float64
}

// ControlInvariants is the CCS'18-style monitor. A per-axis linear state
// model x_{t+1} = a·x_t + b·u_t + c is identified from benign flights; at
// runtime the monitor *simulates the model in parallel* with the vehicle
// (as Choi et al.'s monitor runs the identified control invariants
// alongside the firmware) and accumulates the squared divergence between
// the model state and the observed state over a sliding window.
//
// A small observer gain re-anchors the model toward the observation so
// benign model mismatch cannot drift without bound; an attack that pushes
// the vehicle away from model-consistent behavior outruns that gain and
// accumulates error across the whole window.
type ControlInvariants struct {
	// Window is the sliding-window length (1024 steps ≈ 2.5 s at 400 Hz).
	Window int
	// Threshold is the alarm level (400 000 in the paper).
	Threshold float64
	// Scale converts squared divergence into the paper's cumulative-
	// error units; calibrated so benign flights peak well below the
	// threshold.
	Scale float64
	// ObserverGain is the per-step re-anchoring factor κ.
	ObserverGain float64

	// Per-axis tracking-lag coefficients α for roll, pitch, yaw.
	Alpha [3]float64
	fit   bool

	model   [3]float64 // parallel model state x̂
	haveRef bool
	errs    []float64 // ring buffer of per-step errors
	head    int
	count   int
	cum     float64
}

// NewControlInvariants creates the monitor with the paper's configuration.
func NewControlInvariants() *ControlInvariants {
	return &ControlInvariants{
		Window:       1024,
		Threshold:    400000,
		Scale:        1,
		ObserverGain: 0.002,
	}
}

// Identify fits the per-axis tracking models from a benign trace, then
// calibrates Scale so the maximum benign cumulative error sits at about a
// quarter of the threshold — matching the paper's Figure 6 where benign
// runs peak near 100 000 against the 400 000 threshold.
//
// Each axis is modeled as a first-order lag toward its commanded value:
// x̂_{t+1} = x̂_t + α·(u_t − x̂_t). The constrained form (rather than a free
// AR fit) guarantees the model's steady state equals the command, so the
// statistic measures *tracking consistency* — exactly what the control
// invariant expresses — and is insensitive to sustained command offsets.
// The lag α is the least-squares solution of Δx = α·(u − x).
//
// The trace may come in consecutive chunks (a long calibration trace is
// collected that way, so it grows without copying); Identify reads them
// in order as one sequence.
func (m *ControlInvariants) Identify(trace ...[]CISample) error {
	if len(m.errs) != m.Window {
		m.errs = make([]float64, m.Window)
	}
	var num, den [3]float64
	var prev CISample
	n := 0
	for _, chunk := range trace {
		for _, s := range chunk {
			if n > 0 {
				cur := [3]float64{prev.Roll, prev.Pitch, prev.Yaw}
				des := [3]float64{prev.DesRoll, prev.DesPitch, prev.DesYaw}
				next := [3]float64{s.Roll, s.Pitch, s.Yaw}
				for axis := range cur {
					e := des[axis] - cur[axis]
					dx := next[axis] - cur[axis]
					num[axis] += dx * e
					den[axis] += e * e
				}
			}
			prev = s
			n++
		}
	}
	if n < 32 {
		return fmt.Errorf("defense: CI identification needs ≥32 samples, got %d", n)
	}
	for axis := range m.Alpha {
		alpha := 0.0
		if den[axis] > 0 {
			alpha = num[axis] / den[axis]
		}
		if alpha < 0 {
			alpha = 0
		}
		if alpha > 1 {
			alpha = 1
		}
		m.Alpha[axis] = alpha
	}
	m.fit = true

	// Calibrate the scale on the training trace itself.
	m.Scale = 1
	m.Reset()
	maxCum := 0.0
	for _, chunk := range trace {
		for _, s := range chunk {
			if v := m.Observe(s); v.Stat > maxCum {
				maxCum = v.Stat
			}
		}
	}
	if maxCum > 0 {
		m.Scale = (m.Threshold / 4) / maxCum
	}
	m.Reset()
	return nil
}

// Fitted reports whether Identify has run.
func (m *ControlInvariants) Fitted() bool { return m.fit }

// Observe consumes one sample and returns the cumulative windowed error and
// the alarm decision.
func (m *ControlInvariants) Observe(s CISample) Verdict {
	if len(m.errs) != m.Window {
		m.errs = make([]float64, m.Window)
	}
	obs := [3]float64{s.Roll, s.Pitch, s.Yaw}
	if !m.haveRef {
		m.model = obs
		m.haveRef = true
		return Verdict{}
	}
	// Divergence between the parallel model state and the observation.
	// Yaw is tracked but excluded from the error: during waypoint turns
	// the commanded yaw steps by up to 90° and a linear lag model cannot
	// represent the slew-limited response, so including yaw would let
	// benign corners dominate the statistic.
	stepErr := 0.0
	for i := 0; i < 2; i++ {
		d := obs[i] - m.model[i]
		if d < 0 {
			d = -d
		}
		stepErr += d
	}
	stepErr *= m.Scale

	// Advance the model toward the commanded value with the learned lag,
	// plus the small observer re-anchor.
	u := [3]float64{s.DesRoll, s.DesPitch, s.DesYaw}
	for i := range m.model {
		m.model[i] += m.Alpha[i]*(u[i]-m.model[i]) +
			m.ObserverGain*(obs[i]-m.model[i])
	}

	// Sliding-window accumulation.
	m.cum += stepErr - m.errs[m.head]
	m.errs[m.head] = stepErr
	m.head = (m.head + 1) % m.Window
	if m.count < m.Window {
		m.count++
	}
	return Verdict{Stat: m.cum, Alarm: m.cum > m.Threshold}
}

// Clone returns an independent monitor with the same identified model and
// cleared runtime state. Observe mutates the receiver, so concurrent
// flights (e.g. parallel campaign jobs) must each run their own clone of a
// once-calibrated monitor rather than share it.
func (m *ControlInvariants) Clone() *ControlInvariants {
	c := &ControlInvariants{
		Window:       m.Window,
		Threshold:    m.Threshold,
		Scale:        m.Scale,
		ObserverGain: m.ObserverGain,
		Alpha:        m.Alpha,
		fit:          m.fit,
	}
	c.Reset()
	return c
}

// Reset clears runtime state but keeps the identified model.
func (m *ControlInvariants) Reset() {
	if len(m.errs) != m.Window {
		m.errs = make([]float64, m.Window)
	}
	for i := range m.errs {
		m.errs[i] = 0
	}
	m.head, m.count = 0, 0
	m.cum = 0
	m.haveRef = false
	m.model = [3]float64{}
}
