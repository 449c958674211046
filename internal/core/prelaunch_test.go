package core

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/rl"
	"github.com/ares-cps/ares/internal/sensors"
)

// prelaunchKinds are the env kinds prelaunchEnvs builds, in test order.
var prelaunchKinds = []string{"deviation", "crash"}

// prelaunchEnvs builds one env of each kind on a short line mission; the
// crash env's launches read its obstacle world from the producer.
func prelaunchEnvs(t *testing.T, seed int64) map[string]AttackEnv {
	t.Helper()
	mission := firmware.LineMission(40, 10)
	dev, err := NewDeviationEnv(EnvConfig{Variable: "PIDR.INTEG", Mission: mission, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	crash, err := NewCrashEnv(EnvConfig{Variable: "CMD.Roll", MaxAction: 0.6, Mission: mission, Seed: seed}, ForbiddenZone(40, 10))
	if err != nil {
		t.Fatal(err)
	}
	return map[string]AttackEnv{"deviation": dev, "crash": crash}
}

// flyEpisodes resets env n times and steps each episode twice.
func flyEpisodes(env AttackEnv, n int) {
	for i := 0; i < n; i++ {
		env.Reset()
		env.Step(0.05)
		env.Step(-0.05)
	}
}

// launchBits is the exact bit pattern of a launched flight: the true
// state, the EKF attitude and position, and the firmware clock.
func launchBits(t *testing.T, fw *firmware.Firmware) []byte {
	t.Helper()
	roll, pitch, yaw := fw.EKF().Attitude()
	var buf bytes.Buffer
	for _, v := range []any{fw.Quad().State(), [3]float64{roll, pitch, yaw}, fw.EKF().Position(), fw.Time()} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestPrelaunchMatchesSerial: every episode a producer hands reset is,
// bit for bit, the launch the serial path flies for that episode — the
// producer starts at the env's current episode, not at 0 — and
// TrainExploit on an env that already flew episodes trains and replays
// exactly what the same learner does on an identical env without one.
func TestPrelaunchMatchesSerial(t *testing.T) {
	const seed, before, n = 800, 2, 3
	for _, name := range prelaunchKinds {
		env := prelaunchEnvs(t, seed)[name]
		t.Run(name, func(t *testing.T) {
			b := env.base()
			want := func(ep int) []byte {
				fw, err := firmware.Launch(firmware.Config{World: b.world, Sensors: sensors.Seeded(seed + int64(ep))}, b.cfg.Mission, setupSeconds)
				if err != nil {
					t.Fatal(err)
				}
				return launchBits(t, fw)
			}
			flyEpisodes(env, before)
			stop := b.prelaunch(n)
			for k := 0; k < n; k++ {
				env.Reset()
				if got := launchBits(t, b.fw); !bytes.Equal(got, want(before+k)) {
					t.Errorf("prelaunched episode %d differs from the serial launch with seed %d", before+k, seed+before+k)
				}
				env.Step(0.05)
			}
			stop()
			// With the producer stopped, reset launches synchronously.
			env.Reset()
			if got := launchBits(t, b.fw); !bytes.Equal(got, want(before+n)) {
				t.Errorf("episode %d after stop differs from the serial launch", before+n)
			}
		})
	}
	for _, name := range prelaunchKinds {
		t.Run(name+"/TrainExploit", func(t *testing.T) {
			const episodes, steps, policySeed = 3, 5, 9
			env, serial := prelaunchEnvs(t, seed)[name], prelaunchEnvs(t, seed)[name]
			flyEpisodes(env, before)
			flyEpisodes(serial, before)
			res, err := TrainExploit(env, ExploitConfig{Episodes: episodes, MaxSteps: steps, Seed: policySeed})
			if err != nil {
				t.Fatal(err)
			}
			lo, hi := serial.ActionBounds()
			agent := rl.NewReinforce(serial.ObservationSize(), lo, hi, policySeed)
			train := agent.Train(serial, episodes, steps)
			replay := Replay(serial, agent.Policy.Mean, steps)
			if !reflect.DeepEqual(res.Train, train) {
				t.Errorf("training under the producer %+v, serial %+v", res.Train, train)
			}
			if !reflect.DeepEqual(res.Replay, replay) {
				t.Errorf("replay under the producer %+v, serial %+v", res.Replay, replay)
			}
			if got, want := env.base().episode, before+episodes+1; got != want {
				t.Errorf("env at episode %d after TrainExploit, want %d", got, want)
			}
		})
	}
}

// panicEnv panics from the panicAt-th Step: a training run that dies
// with its producer mid-flight.
type panicEnv struct {
	*DeviationEnv
	steps, panicAt int
}

func (e *panicEnv) Step(action float64) ([]float64, float64, bool) {
	if e.steps++; e.steps == e.panicAt {
		panic("panicEnv: mid-training")
	}
	return e.DeviationEnv.Step(action)
}

// TestPrelaunchStopLeaksNothing: stop ends a producer that still owes
// launches, and TrainExploit stops its producer when training panics,
// so no goroutine outlives either.
func TestPrelaunchStopLeaksNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()
	within := func(what string, f func()) {
		t.Helper()
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			f()
		}()
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s did not return: the producer is stuck", what)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > baseline {
			if time.Now().After(deadline) {
				t.Fatalf("after %s: %d goroutines, baseline %d", what, runtime.NumGoroutine(), baseline)
			}
			time.Sleep(time.Millisecond)
		}
	}

	env := prelaunchEnvs(t, 820)["deviation"]
	stop := env.base().prelaunch(5)
	env.Reset()
	within("stop after 1 of 5 launches", stop)

	dev := prelaunchEnvs(t, 830)["deviation"].(*DeviationEnv)
	within("a panicking TrainExploit", func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("TrainExploit did not panic")
			}
		}()
		_, _ = TrainExploit(&panicEnv{DeviationEnv: dev, panicAt: 7}, ExploitConfig{Episodes: 5, MaxSteps: 5, Seed: 1})
	})
	if dev.launched != nil {
		t.Error("the env still holds the stopped producer's channel")
	}
}
