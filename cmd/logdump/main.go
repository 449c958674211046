// Command logdump records and inspects dataflash flight logs.
//
// Usage:
//
//	logdump -record out.bin [-seconds N] [-seed S]   fly a mission and log it
//	logdump -dump in.bin [-filter MSG]               print records
//	logdump -series in.bin -var ATT.Roll             print one time series
//	logdump -summary in.bin                          per-message record counts
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/ares-cps/ares/internal/dataflash"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/sensors"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "logdump:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("logdump", flag.ContinueOnError)
	record := fs.String("record", "", "record a simulated flight log to this file")
	seconds := fs.Float64("seconds", 60, "flight duration for -record")
	seed := fs.Int64("seed", 1, "sensor noise seed for -record")
	dump := fs.String("dump", "", "dump records from this log file")
	filter := fs.String("filter", "", "only print this message type with -dump")
	series := fs.String("series", "", "log file for -var extraction")
	variable := fs.String("var", "", "MSG.Field to extract with -series")
	summary := fs.String("summary", "", "print per-message counts for this log file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	switch {
	case *record != "":
		return recordFlight(*record, *seconds, *seed)
	case *dump != "":
		return dumpLog(*dump, *filter)
	case *series != "" && *variable != "":
		return dumpSeries(*series, *variable)
	case *summary != "":
		return summarize(*summary)
	default:
		fs.Usage()
		return fmt.Errorf("no action given")
	}
}

func recordFlight(path string, seconds float64, seed int64) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	// The log is worthless if the final flush fails, so a close error on
	// this write path must surface; earlier errors win over the close's.
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	w := dataflash.NewWriter(f)

	fw, err := firmware.Launch(firmware.Config{Sensors: sensors.Seeded(seed), LogWriter: w},
		firmware.SquareMission(25, 10), 10)
	if err != nil {
		return err
	}
	fw.RunFor(seconds)
	if crashed, reason := fw.Quad().Crashed(); crashed {
		return fmt.Errorf("flight crashed: %s", reason)
	}
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %.0f s mission to %s\n", seconds, path)
	return nil
}

func openLog(path string) (*dataflash.Log, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return dataflash.Read(f)
}

func dumpLog(path, filter string) error {
	log, err := openLog(path)
	if err != nil {
		return err
	}
	for _, rec := range log.Records {
		if filter != "" && rec.Name != filter {
			continue
		}
		fmt.Printf("%8.3f %-5s", rec.Time, rec.Name)
		for _, v := range rec.Values {
			fmt.Printf(" %10.4f", v)
		}
		fmt.Println()
	}
	return nil
}

func dumpSeries(path, variable string) error {
	log, err := openLog(path)
	if err != nil {
		return err
	}
	times, values := log.Series(variable)
	if len(values) == 0 {
		return fmt.Errorf("no data for %q", variable)
	}
	for i := range times {
		fmt.Printf("%8.3f %12.6f\n", times[i], values[i])
	}
	return nil
}

func summarize(path string) error {
	log, err := openLog(path)
	if err != nil {
		return err
	}
	counts := make(map[string]int)
	for _, rec := range log.Records {
		counts[rec.Name]++
	}
	names := make([]string, 0, len(counts))
	for n := range counts {
		names = append(names, n)
	}
	sort.Strings(names)
	total := 0
	for _, n := range names {
		fmt.Printf("%-6s %6d\n", n, counts[n])
		total += counts[n]
	}
	fmt.Printf("total  %6d records, %d message types\n", total, len(names))
	return nil
}
