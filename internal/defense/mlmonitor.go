package defense

import (
	"fmt"
	"math"

	"github.com/ares-cps/ares/internal/stats"
)

// MLSample is one observation for the ML output monitor: the rate
// controller's target and measurement plus the control output it actually
// produced.
type MLSample struct {
	// Target and Actual are the controller's input pair (rad/s).
	Target, Actual float64
	// Output is the controller's produced output (torque fraction).
	Output float64
}

// MLMonitor approximates the RAID'21 monitor: a model trained on benign
// flights predicts the controller output from its inputs, and the smoothed
// "control output distance" |predicted − actual| is compared to the benign
// error bound (0.01 in the paper's Figure 7).
//
// The paper's monitor is a small DNN; the numerical function a rate PID
// computes is piecewise linear in (error, error-rate, error-integral), so a
// linear model over those features reproduces the same detection behavior.
type MLMonitor struct {
	// Threshold is the benign-error upper bound (0.01 in the paper).
	Threshold float64
	// Smoothing is the EMA factor applied to the raw distance.
	Smoothing float64
	// DT is the controller period used to build derivative/integral
	// features.
	DT float64
	// Scale normalizes the raw distance into the paper's units; Train
	// calibrates it so the training flight's peak distance sits at half
	// the threshold.
	Scale float64

	coef [4]float64 // intercept, err, errDot, errInt
	fit  bool

	// Runtime feature state mirrors the controller's internal filters.
	integ    float64
	lastErr  float64
	haveLast bool
	dist     float64
}

// NewMLMonitor creates the monitor with the paper's 0.01 threshold.
func NewMLMonitor(dt float64) *MLMonitor {
	return &MLMonitor{Threshold: 0.01, Smoothing: 0.05, DT: dt, Scale: 1}
}

// Train fits the output predictor on a benign trace.
func (m *MLMonitor) Train(trace []MLSample) error {
	if len(trace) < 32 {
		return fmt.Errorf("defense: ML monitor training needs ≥32 samples, got %d", len(trace))
	}
	n := len(trace)
	errF := make([]float64, n)
	dotF := make([]float64, n)
	intF := make([]float64, n)
	y := make([]float64, n)
	integ, last := 0.0, 0.0
	for i, s := range trace {
		e := s.Target - s.Actual
		integ += e * m.DT
		d := 0.0
		if i > 0 {
			d = (e - last) / m.DT
		}
		last = e
		errF[i], dotF[i], intF[i] = e, d, integ
		y[i] = s.Output
	}
	res, err := stats.OLS(y, [][]float64{errF, dotF, intF}, []string{"e", "de", "ie"})
	if err != nil {
		return fmt.Errorf("defense: ML monitor fit: %w", err)
	}
	copy(m.coef[:], res.Coef)
	m.fit = true

	// Calibrate Scale on the training flight: its peak smoothed distance
	// defines half the benign error bound, exactly how a deployed
	// monitor's threshold is fit to benign runs.
	m.Scale = 1
	m.Reset()
	maxDist := 0.0
	for _, s := range trace {
		if v := m.Observe(s); v.Stat > maxDist {
			maxDist = v.Stat
		}
	}
	if maxDist > 0 {
		m.Scale = (m.Threshold / 2) / maxDist
	}
	m.Reset()
	return nil
}

// Fitted reports whether Train has run.
func (m *MLMonitor) Fitted() bool { return m.fit }

// Observe consumes one sample and returns the smoothed control output
// distance and alarm decision.
func (m *MLMonitor) Observe(s MLSample) Verdict {
	e := s.Target - s.Actual
	m.integ += e * m.DT
	d := 0.0
	if m.haveLast {
		d = (e - m.lastErr) / m.DT
	}
	m.lastErr = e
	m.haveLast = true

	pred := m.coef[0] + m.coef[1]*e + m.coef[2]*d + m.coef[3]*m.integ
	raw := math.Abs(pred-s.Output) * m.Scale
	m.dist += (raw - m.dist) * m.Smoothing
	return Verdict{Stat: m.dist, Alarm: m.dist > m.Threshold}
}

// Reset clears runtime state but keeps the trained model.
func (m *MLMonitor) Reset() {
	m.integ = 0
	m.lastErr = 0
	m.haveLast = false
	m.dist = 0
}

// EKFResidual is the SAVIOR-style sensor-estimation monitor: a CUSUM
// statistic over the residual between the sensed state (e.g. ATT.Roll) and
// the EKF-estimated state (EKF1.Roll). Because both values are driven by
// the same physical motion, controller-level manipulations that move the
// *vehicle* consistently leave this residual near zero — the blind spot the
// Figure 8 experiment demonstrates.
type EKFResidual struct {
	// Drift is the CUSUM allowance b: |residual| below this decays the
	// statistic.
	Drift float64
	// Threshold is the CUSUM alarm level τ.
	Threshold float64

	score float64
}

// NewEKFResidual creates the monitor with drift/threshold tuned for radian
// attitude residuals sampled at the 400 Hz loop rate: the CUSUM tolerates
// residuals below ~5.7° (benign estimation error during maneuvers peaks
// around there) and needs roughly half a second of sustained excess to
// alarm — fast against a real sensor-spoof residual, quiet on transients.
func NewEKFResidual() *EKFResidual {
	return &EKFResidual{Drift: 0.1, Threshold: 20}
}

// Observe consumes one (sensed, estimated) pair.
func (m *EKFResidual) Observe(sensed, estimated float64) Verdict {
	res := math.Abs(sensed - estimated)
	m.score = math.Max(0, m.score+res-m.Drift)
	return Verdict{Stat: m.score, Alarm: m.score > m.Threshold}
}

// Reset clears the CUSUM state.
func (m *EKFResidual) Reset() { m.score = 0 }
