package sim

import "testing"

// BenchmarkQuadStep is the scalar per-trial-step baseline.
func BenchmarkQuadStep(b *testing.B) {
	p := IRISPlusParams()
	q, err := NewQuad(p)
	if err != nil {
		b.Fatal(err)
	}
	// Balanced hover commands keep the vehicle airborne and uncrashed for
	// the whole run.
	h := p.HoverThrottle()
	cmd := [4]float64{h, h, h, h}
	const dt = 1.0 / 400
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Periodic reset keeps the battery from depleting mid-run, which
		// would zero the commands and change the measured work.
		if i%100000 == 0 {
			b.StopTimer()
			q.Reset(q.State().Pos)
			b.StartTimer()
		}
		q.Step(cmd, dt)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/trial-step")
}
