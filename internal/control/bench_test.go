package control

import (
	"testing"

	"github.com/ares-cps/ares/internal/mathx"
)

// BenchmarkCascadeStep measures one full controller cycle: position →
// attitude → mixer, from a fixed mid-flight state.
func BenchmarkCascadeStep(b *testing.B) {
	const dt = 1.0 / 400
	pos := NewPositionController(dt, 0.39)
	att := NewAttitudeController(dt)
	var mix Mixer
	target, p, v := mathx.V3(0, 0, -8), mathx.V3(0, 0, -7.5), mathx.V3(-1.5, -1, 0)
	roll, pitch, yaw, desYaw := -0.2, -0.15, -1.5, -1.5
	gyro := mathx.V3(-0.75, -0.6, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		desRoll, desPitch, throttle := pos.Update(target, p, v, yaw)
		tr, tp, ty := att.Update(desRoll, desPitch, desYaw, roll, pitch, yaw, gyro)
		mix.Mix(throttle, tr, tp, ty)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/trial-step")
}
