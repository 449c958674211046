package control

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/ares-cps/ares/internal/mathx"
)

// TestPropertyPIDOutputBounded: for any gain set and any input sequence, the
// PID output never leaves [OutMin, OutMax] and the integrator never exceeds
// its clamp.
func TestPropertyPIDOutputBounded(t *testing.T) {
	f := func(seed int64, kp, ki, kd, imax float64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := PIDConfig{
			KP:     math.Mod(math.Abs(kp), 10),
			KI:     math.Mod(math.Abs(ki), 10),
			KD:     math.Mod(math.Abs(kd), 1),
			IMax:   math.Mod(math.Abs(imax), 5) + 0.01,
			DT:     1.0 / 400,
			OutMin: -1, OutMax: 1,
		}
		p := NewPID(cfg)
		for i := 0; i < 500; i++ {
			out := p.Update(r.NormFloat64()*10, r.NormFloat64()*10)
			if out < cfg.OutMin-1e-12 || out > cfg.OutMax+1e-12 {
				return false
			}
			if math.Abs(p.integrator) > cfg.IMax+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestPropertySqrtControllerOddAndMonotone: the square-root controller is an
// odd, monotone function of the error for any positive gain and limit.
func TestPropertySqrtController(t *testing.T) {
	f := func(pRaw, limRaw float64) bool {
		p := math.Mod(math.Abs(pRaw), 20) + 0.1
		lim := math.Mod(math.Abs(limRaw), 50) + 0.1
		s := newSqrtController(p, lim)
		prev := math.Inf(-1)
		for e := -20.0; e <= 20.0; e += 0.05 {
			out := s.Update(e)
			if out < prev-1e-9 {
				return false // not monotone
			}
			prev = out
			// Odd symmetry.
			if math.Abs(s.Update(-e)+out) > 1e-9 {
				return false
			}
			// Never exceeds the linear response magnitude.
			if math.Abs(out) > math.Abs(e*p)+1e-9 {
				return false
			}
			// Restore monotonic sweep state (Update(-e) disturbed it).
			prev = s.Update(e)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMixerConservation: for any demands, the mixer keeps every
// motor in [0, 1] and the average motor command equals the throttle whenever
// no motor saturates (torque demands are differential).
func TestPropertyMixer(t *testing.T) {
	f := func(thr, rollT, pitchT, yawT float64) bool {
		thr = math.Mod(math.Abs(thr), 1)
		rollT = math.Mod(rollT, 1)
		pitchT = math.Mod(pitchT, 1)
		yawT = math.Mod(yawT, 1)
		var m Mixer
		cmd := m.Mix(thr, rollT, pitchT, yawT)
		saturated := false
		sum := 0.0
		for _, c := range cmd {
			if c < 0 || c > 1 {
				return false
			}
			if c == 0 || c == 1 {
				saturated = true
			}
			sum += c
		}
		if !saturated && math.Abs(sum/4-thr) > 1e-9 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyParamStoreRangeInvariant: after any sequence of Set attempts,
// every parameter's value remains inside its documented range.
func TestPropertyParamStoreRange(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s, err := NewParamStore(catalogueFields())
		if err != nil {
			return false
		}
		names := s.Names()
		for i := 0; i < 100; i++ {
			name := names[r.Intn(len(names))]
			_ = s.Set(name, r.NormFloat64()*1000) // may fail; that's fine
		}
		for _, name := range names {
			p, ok := s.Lookup(name)
			if !ok {
				return false
			}
			if v, _ := s.Get(name); v < p.Min-1e-9 || v > p.Max+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropertyPositionControllerOutputsBounded: lean angles stay within the
// configured limit and throttle within [0, 1] for arbitrary states.
func TestPropertyPositionControllerBounded(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		c := NewPositionController(1.0/400, 0.4)
		for i := 0; i < 200; i++ {
			target := mathx.V3(r.NormFloat64()*100, r.NormFloat64()*100, -math.Abs(r.NormFloat64()*50))
			pos := mathx.V3(r.NormFloat64()*100, r.NormFloat64()*100, -math.Abs(r.NormFloat64()*50))
			vel := mathx.V3(r.NormFloat64()*10, r.NormFloat64()*10, r.NormFloat64()*5)
			yaw := r.NormFloat64() * 3
			desRoll, desPitch, thr := c.Update(target, pos, vel, yaw)
			if math.Abs(desRoll) > c.MaxLeanAngle+1e-9 ||
				math.Abs(desPitch) > c.MaxLeanAngle+1e-9 {
				return false
			}
			if thr < 0 || thr > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
