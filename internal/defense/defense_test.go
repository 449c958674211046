package defense

import (
	"math"
	"math/rand"
	"testing"
)

// benignCITrace simulates a vehicle whose attitude follows its target with
// first-order lag plus small noise — the behavior the CI model identifies.
func benignCITrace(n int, seed int64) []CISample {
	rng := rand.New(rand.NewSource(seed))
	var roll, pitch, yaw float64
	out := make([]CISample, n)
	for i := range out {
		des := CISample{
			DesRoll:  0.1 * math.Sin(float64(i)*0.01),
			DesPitch: 0.05 * math.Cos(float64(i)*0.013),
			DesYaw:   0,
		}
		roll += 0.05*(des.DesRoll-roll) + 0.001*rng.NormFloat64()
		pitch += 0.05*(des.DesPitch-pitch) + 0.001*rng.NormFloat64()
		yaw += 0.05*(des.DesYaw-yaw) + 0.001*rng.NormFloat64()
		out[i] = CISample{
			Roll: roll, Pitch: pitch, Yaw: yaw,
			DesRoll: des.DesRoll, DesPitch: des.DesPitch, DesYaw: des.DesYaw,
		}
	}
	return out
}

// TestControlInvariantsIdentifyChunks: a trace split into consecutive
// chunks, empty ones included, identifies the same model bit for bit.
func TestControlInvariantsIdentifyChunks(t *testing.T) {
	trace := benignCITrace(4000, 3)
	flat := NewControlInvariants()
	if err := flat.Identify(trace); err != nil {
		t.Fatal(err)
	}
	chunked := NewControlInvariants()
	if err := chunked.Identify(trace[:1], nil, trace[1:999], trace[999:1024], trace[1024:]); err != nil {
		t.Fatal(err)
	}
	for i := range flat.Alpha {
		if math.Float64bits(flat.Alpha[i]) != math.Float64bits(chunked.Alpha[i]) {
			t.Errorf("alpha[%d] = %v over chunks, %v flat", i, chunked.Alpha[i], flat.Alpha[i])
		}
	}
	if math.Float64bits(flat.Scale) != math.Float64bits(chunked.Scale) {
		t.Errorf("scale = %v over chunks, %v flat", chunked.Scale, flat.Scale)
	}
	if err := NewControlInvariants().Identify(trace[:10], trace[10:31]); err == nil {
		t.Error("31 samples over two chunks identified; want the ≥32 error")
	}
}

func TestControlInvariantsIdentify(t *testing.T) {
	ci := NewControlInvariants()
	if ci.Fitted() {
		t.Error("unfitted monitor reports fitted")
	}
	if err := ci.Identify(benignCITrace(4000, 1)); err != nil {
		t.Fatal(err)
	}
	if !ci.Fitted() {
		t.Error("fitted monitor reports unfitted")
	}
	if err := ci.Identify(benignCITrace(10, 1)); err == nil {
		t.Error("tiny trace accepted")
	}
}

func TestControlInvariantsBenignStaysBelowThreshold(t *testing.T) {
	ci := NewControlInvariants()
	if err := ci.Identify(benignCITrace(4000, 2)); err != nil {
		t.Fatal(err)
	}
	maxStat := 0.0
	for _, s := range benignCITrace(8000, 3) {
		v := ci.Observe(s)
		if v.Alarm {
			t.Fatalf("false alarm on benign flight at stat %v", v.Stat)
		}
		if v.Stat > maxStat {
			maxStat = v.Stat
		}
	}
	// Calibration puts benign peaks around threshold/4.
	if maxStat <= 0 || maxStat > ci.Threshold {
		t.Errorf("benign max stat = %v", maxStat)
	}
}

func TestControlInvariantsDetectsNaiveAttack(t *testing.T) {
	ci := NewControlInvariants()
	if err := ci.Identify(benignCITrace(4000, 4)); err != nil {
		t.Fatal(err)
	}
	// Naive attack: roll jumps to 30° (0.52 rad) while the model expects
	// lagged tracking of a small target.
	trace := benignCITrace(2000, 5)
	alarmed := false
	for i, s := range trace {
		if i > 1000 {
			s.Roll = 0.52
		}
		if v := ci.Observe(s); v.Alarm {
			alarmed = true
			break
		}
	}
	if !alarmed {
		t.Error("naive 30° roll attack not detected")
	}
}

func TestControlInvariantsGradualAttackEvades(t *testing.T) {
	// The ARES-style manipulation: the *desired* and actual roll move
	// together slowly, so the one-step prediction error stays tiny.
	ci := NewControlInvariants()
	if err := ci.Identify(benignCITrace(4000, 6)); err != nil {
		t.Fatal(err)
	}
	var roll float64
	for i := 0; i < 4000; i++ {
		target := float64(i) * 0.00003 // slow coordinated ramp
		roll += 0.05 * (target - roll)
		v := ci.Observe(CISample{Roll: roll, DesRoll: target})
		if v.Alarm {
			t.Fatalf("gradual coordinated manipulation detected at step %d", i)
		}
	}
}

func TestControlInvariantsReset(t *testing.T) {
	ci := NewControlInvariants()
	if err := ci.Identify(benignCITrace(2000, 7)); err != nil {
		t.Fatal(err)
	}
	for _, s := range benignCITrace(100, 8) {
		ci.Observe(s)
	}
	ci.Reset()
	v := ci.Observe(CISample{})
	if v.Stat != 0 {
		t.Errorf("stat after reset = %v", v.Stat)
	}
}

func benignMLTrace(n int, dt float64, seed int64) []MLSample {
	rng := rand.New(rand.NewSource(seed))
	out := make([]MLSample, n)
	integ, last := 0.0, 0.0
	for i := range out {
		target := 0.5 * math.Sin(float64(i)*0.01)
		actual := target - 0.1*math.Sin(float64(i)*0.011) + 0.01*rng.NormFloat64()
		e := target - actual
		integ += e * dt
		d := (e - last) / dt
		last = e
		// A PID-like output with known gains plus small noise.
		out[i] = MLSample{
			Target: target,
			Actual: actual,
			Output: 0.135*e + 0.09*integ + 0.004*d + 0.0005*rng.NormFloat64(),
		}
	}
	return out
}

func TestMLMonitorTrainAndBenign(t *testing.T) {
	const dt = 1.0 / 400
	m := NewMLMonitor(dt)
	if m.Fitted() {
		t.Error("unfitted monitor reports fitted")
	}
	if err := m.Train(benignMLTrace(4000, dt, 11)); err != nil {
		t.Fatal(err)
	}
	if !m.Fitted() {
		t.Error("fitted monitor reports unfitted")
	}
	for _, s := range benignMLTrace(4000, dt, 12) {
		if v := m.Observe(s); v.Alarm {
			t.Fatalf("false alarm on benign outputs at distance %v", v.Stat)
		}
	}
	if err := NewMLMonitor(dt).Train(nil); err == nil {
		t.Error("empty training trace accepted")
	}
}

func TestMLMonitorDetectsOutputTampering(t *testing.T) {
	const dt = 1.0 / 400
	m := NewMLMonitor(dt)
	if err := m.Train(benignMLTrace(4000, dt, 13)); err != nil {
		t.Fatal(err)
	}
	// Naive attack: the controller output is overwritten with a large
	// constant inconsistent with the inputs.
	alarmed := false
	for i, s := range benignMLTrace(2000, dt, 14) {
		if i > 500 {
			s.Output += 0.3
		}
		if v := m.Observe(s); v.Alarm {
			alarmed = true
			break
		}
	}
	if !alarmed {
		t.Error("output tampering not detected")
	}
}

func TestMLMonitorGradualScalerEvades(t *testing.T) {
	// The Figure 7 attack: a slowly ramped output scaler keeps the
	// distance inside the benign band.
	const dt = 1.0 / 400
	m := NewMLMonitor(dt)
	if err := m.Train(benignMLTrace(4000, dt, 15)); err != nil {
		t.Fatal(err)
	}
	maxStat := 0.0
	for i, s := range benignMLTrace(4000, dt, 16) {
		scale := 1 + 0.000002*float64(i) // creeps to 1.008
		s.Output *= scale
		v := m.Observe(s)
		if v.Stat > maxStat {
			maxStat = v.Stat
		}
		if v.Alarm {
			t.Fatalf("gradual scaler detected at step %d (stat %v)", i, v.Stat)
		}
	}
	if maxStat == 0 {
		t.Error("monitor saw no distance at all")
	}
}

func TestEKFResidualCUSUM(t *testing.T) {
	m := NewEKFResidual()
	// Agreeing signals: score stays at zero.
	for i := 0; i < 1000; i++ {
		if v := m.Observe(0.1, 0.1+0.001*math.Sin(float64(i))); v.Alarm {
			t.Fatal("false alarm on agreeing signals")
		}
	}
	if m.score > 0.01 {
		t.Errorf("score accumulated on agreeing signals: %v", m.score)
	}
	// Diverging signals (sensor spoofing): alarm.
	alarmed := false
	for i := 0; i < 100; i++ {
		if v := m.Observe(0.5, 0.1); v.Alarm {
			alarmed = true
			break
		}
	}
	if !alarmed {
		t.Error("persistent 0.4 rad residual not detected")
	}
	m.Reset()
	if m.score != 0 {
		t.Error("reset did not clear score")
	}
}

func TestEKFResidualBlindToConsistentMotion(t *testing.T) {
	// The Figure 8 property: when a controller-level manipulation moves
	// the actual vehicle, the sensors and the EKF agree with each other
	// (both track the real motion), so the residual stays near zero even
	// during violent oscillation.
	m := NewEKFResidual()
	for i := 0; i < 4000; i++ {
		truth := 0.4 * math.Sin(float64(i)*0.05) // aggressive roll swings
		sensed := truth + 0.002*math.Sin(float64(i)*0.3)
		estimated := truth - 0.002*math.Cos(float64(i)*0.21)
		if v := m.Observe(sensed, estimated); v.Alarm {
			t.Fatalf("alarm on consistent motion at step %d", i)
		}
	}
}

func TestThresholdSweep(t *testing.T) {
	benign := []float64{10, 20, 30, 40, 50}
	attack := []float64{35, 45, 55, 65, 75}
	points := ThresholdSweep(benign, attack, []float64{60, 30, 5})
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// High threshold: no FP, some TP.
	if points[0].FPRate != 0 || points[0].TPRate != 0.4 {
		t.Errorf("th=60: %+v", points[0])
	}
	// Mid threshold: FP appears as TP improves — the Figure 9 trade-off.
	if points[1].FPRate != 0.4 || points[1].TPRate != 1.0 {
		t.Errorf("th=30: %+v", points[1])
	}
	// Tiny threshold: everything alarms.
	if points[2].FPRate != 1 || points[2].TPRate != 1 {
		t.Errorf("th=5: %+v", points[2])
	}
	// Degenerate inputs do not panic or divide by zero.
	empty := ThresholdSweep(nil, nil, []float64{1})
	if empty[0].FPRate != 0 || empty[0].TPRate != 0 {
		t.Errorf("empty sweep: %+v", empty[0])
	}
}
