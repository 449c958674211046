// Command simgcs is the MAVProxy stand-in: it can serve a simulated vehicle
// over TCP (-serve) and act as a ground control station client against it
// (-connect), exercising the full GCS protocol path the attacker abuses.
//
// Usage:
//
//	simgcs -serve :5760 [-rate 400] [-seconds 120]
//	simgcs -connect localhost:5760 -takeoff 10
//	simgcs -connect localhost:5760 -param ATC_RAT_RLL_P -value 0.2
//	simgcs -connect localhost:5760 -mission 60 -watch 30
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/mavlink"
	"github.com/ares-cps/ares/internal/sensors"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "simgcs:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("simgcs", flag.ContinueOnError)
	serve := fs.String("serve", "", "serve a simulated vehicle on this TCP address")
	seconds := fs.Float64("seconds", 300, "simulated flight budget for -serve")
	connect := fs.String("connect", "", "connect to a vehicle as a GCS")
	takeoff := fs.Float64("takeoff", 0, "command a takeoff to this altitude")
	param := fs.String("param", "", "parameter to set (with -value) or read")
	value := fs.Float64("value", 0, "value for -param")
	setValue := fs.Bool("set", false, "set -param to -value instead of reading")
	mission := fs.Float64("mission", 0, "upload and start a line mission of this length")
	watch := fs.Float64("watch", 0, "print telemetry for this many seconds")
	seed := fs.Int64("seed", 1, "sensor seed for -serve")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *serve != "":
		return serveVehicle(*serve, *seconds, *seed)
	case *connect != "":
		return runGCS(*connect, gcsActions{
			takeoff:  *takeoff,
			param:    *param,
			value:    *value,
			setParam: *setValue,
			mission:  *mission,
			watch:    *watch,
		})
	default:
		fs.Usage()
		return fmt.Errorf("need -serve or -connect")
	}
}

// serveVehicle runs one firmware instance and bridges one TCP client to its
// GCS inbox/outbox. The simulation advances in real time (400 ticks per
// wall-clock second) so an interactive GCS session behaves like a live link.
func serveVehicle(addr string, seconds float64, seed int64) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	defer ln.Close()
	fmt.Printf("vehicle listening on %s\n", ln.Addr())

	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	fmt.Printf("GCS connected from %s\n", conn.RemoteAddr())

	fw, err := firmware.New(firmware.Config{Sensors: sensors.Seeded(seed)})
	if err != nil {
		return err
	}
	ep := mavlink.NewEndpoint(conn, 1)

	// Reader goroutine: GCS messages → firmware inbox.
	readerDone := make(chan error, 1)
	go func() {
		defer close(readerDone)
		for {
			m, err := ep.Recv()
			if err != nil {
				readerDone <- err
				return
			}
			fw.Enqueue(m)
		}
	}()

	// The session loop is paced by the wall clock on purpose — this is an
	// interactive link emulator, not a reproducible experiment; the seed
	// above only shapes the sensor noise.
	//areslint:ignore dettaint interactive session paced by wall clock; seed only shapes sensor noise
	return runSession(ep, fw, seconds, readerDone)
}

// runSession drives the firmware at a live-link cadence until the
// deadline passes, the GCS disconnects, or the vehicle crashes.
func runSession(ep *mavlink.Endpoint, fw *firmware.Firmware, seconds float64, readerDone chan error) error {
	ticker := time.NewTicker(100 * time.Millisecond) // 40 ticks per wake-up
	defer ticker.Stop()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	lastTelemetry := time.Now()
	for time.Now().Before(deadline) {
		select {
		case err := <-readerDone:
			if err != nil && !errors.Is(err, io.EOF) {
				return fmt.Errorf("link: %w", err)
			}
			return nil
		case <-ticker.C:
			fw.StepN(40)
			for _, reply := range fw.DrainOutbox() {
				if err := ep.Send(reply); err != nil {
					return err
				}
			}
			if time.Since(lastTelemetry) >= time.Second {
				lastTelemetry = time.Now()
				for _, m := range fw.TelemetrySnapshot() {
					if err := ep.Send(m); err != nil {
						return err
					}
				}
			}
			if crashed, reason := fw.Quad().Crashed(); crashed {
				_ = ep.Send(&mavlink.StatusText{Severity: 2, Text: "CRASH: " + reason})
				return fmt.Errorf("vehicle crashed: %s", reason)
			}
		}
	}
	return nil
}

type gcsActions struct {
	takeoff  float64
	param    string
	value    float64
	setParam bool
	mission  float64
	watch    float64
}

func runGCS(addr string, a gcsActions) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	ep := mavlink.NewEndpoint(conn, 255)

	expect := func(want uint8) (mavlink.Message, error) {
		for {
			m, err := ep.Recv()
			if err != nil {
				return nil, err
			}
			if m.ID() == want {
				return m, nil
			}
		}
	}

	if a.takeoff > 0 {
		if err := ep.Send(&mavlink.CommandLong{
			Command: mavlink.CmdTakeoff,
			Params:  [7]float64{6: a.takeoff},
		}); err != nil {
			return err
		}
		m, err := expect(mavlink.MsgIDCommandAck)
		if err != nil {
			return err
		}
		fmt.Printf("takeoff ack: %+v\n", m)
	}
	if a.param != "" {
		if a.setParam {
			if err := ep.Send(&mavlink.ParamSet{Name: a.param, Value: a.value}); err != nil {
				return err
			}
		} else {
			if err := ep.Send(&mavlink.ParamRequestRead{Name: a.param}); err != nil {
				return err
			}
		}
		m, err := expect(mavlink.MsgIDParamValue)
		if err != nil {
			return err
		}
		pv := m.(*mavlink.ParamValue)
		fmt.Printf("param %s = %g (ok=%v)\n", pv.Name, pv.Value, pv.OK)
	}
	if a.mission > 0 {
		items := []*mavlink.MissionItem{
			{Seq: 0, X: 0, Y: 0, Z: -10},
			{Seq: 1, X: a.mission, Y: 0, Z: -10},
		}
		for _, it := range items {
			if err := ep.Send(it); err != nil {
				return err
			}
		}
		if _, err := expect(mavlink.MsgIDMissionAck); err != nil {
			return err
		}
		if err := ep.Send(&mavlink.CommandLong{Command: mavlink.CmdMissionGo}); err != nil {
			return err
		}
		if _, err := expect(mavlink.MsgIDCommandAck); err != nil {
			return err
		}
		fmt.Printf("mission of %.0f m started\n", a.mission)
	}
	if a.watch > 0 {
		deadline := time.Now().Add(time.Duration(a.watch * float64(time.Second)))
		for time.Now().Before(deadline) {
			m, err := ep.Recv()
			if err != nil {
				return err
			}
			switch t := m.(type) {
			case *mavlink.Attitude:
				fmt.Printf("t=%7.1f roll=%6.2f pitch=%6.2f yaw=%6.2f\n",
					t.TimeS, t.Roll, t.Pitch, t.Yaw)
			case *mavlink.GlobalPosition:
				fmt.Printf("t=%7.1f pos=(%.1f, %.1f, %.1f)\n", t.TimeS, t.X, t.Y, t.Z)
			case *mavlink.StatusText:
				fmt.Printf("status[%d]: %s\n", t.Severity, t.Text)
			}
		}
	}
	return nil
}
